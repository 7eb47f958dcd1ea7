/**
 * @file
 * Telemetry exporters: Prometheus-style text exposition plus the
 * atomically-rotated status.json health snapshot (DESIGN.md §16).
 *
 * The status snapshot is two files with a strict division of labour:
 *  - `status.json` — the artifact. One ServiceStatus rendered with
 *    each session object on its own line (so the flat json:: line
 *    extractors work per session), containing *only* deterministic
 *    fields: session state, window ordinals, line counts, buffered
 *    rows, alert counts. Byte-identical across --jobs counts and
 *    kill+resume once the run drains.
 *  - `status.meta.json` — the volatile sidecar. Wall-clock stamp,
 *    jobs count, refresh ordinal. Never byte-compared; tools may
 *    read it for "updated N seconds ago" displays.
 *
 * Both are written via ckpt::atomicWriteFile, so a dashboard tailing
 * the file mid-run always reads a whole snapshot, never a torn one.
 *
 * The exposition writer emits the classic text format
 * (`# HELP` / `# TYPE` / `name{labels} value`) from a Rollup, with
 * metric names sanitised to the Prometheus alphabet and tenants as
 * a `tenant` label.
 */

#ifndef OBS_EXPORT_HH
#define OBS_EXPORT_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/error.hh"
#include "obs/rollup.hh"

namespace graphene {
namespace obs {

/** Schema ordinal of the graphene-serve-status-v1 snapshot. */
inline constexpr std::uint32_t kStatusSchema = 1;

/** One serving session's health, as the driver last saw it. */
struct SessionStatus
{
    std::string id;
    std::string scheme;
    std::string source;
    /** "pending" | "running" | "done" | "failed". */
    std::string state = "pending";
    std::string failure; ///< Error code when state == "failed".
    /** (Scheduling facts — quanta consumed, fork parentage — are
     *  deliberately absent: they differ across kill+resume, and the
     *  drained snapshot must stay byte-identical. Volatile data
     *  belongs in the status.meta.json sidecar.) */
    std::uint64_t lastWindow = 0;   ///< Newest emitted window line.
    std::uint64_t jsonlLines = 0;   ///< Durable artifact lines.
    std::uint64_t bufferedRows = 0; ///< Stream buffer occupancy now.
    /** Chunk bound the occupancy is measured against. (The *peak*
     *  occupancy is deliberately absent: StreamPattern's high-water
     *  mark is ckpt-exempt, so it would differ across kill+resume
     *  and break the snapshot's byte-identity contract.) */
    std::uint64_t chunkRows = 0;
    std::uint64_t alertsFired = 0;
};

/** The whole service's health at one instant. */
struct ServiceStatus
{
    std::vector<SessionStatus> sessions; ///< Sorted by id for render.
    std::uint64_t quantumCycles = 0;
    std::uint64_t running = 0;
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t pending = 0;

    /** Recompute the state tallies and sort sessions by id. */
    void finalize();
};

/**
 * Render the deterministic snapshot: valid JSON whose `sessions`
 * array puts each session object on its own line.
 */
std::string renderStatusJson(const ServiceStatus &status);

/** renderStatusJson + ckpt::atomicWriteFile. */
Result<void> writeStatusJson(const std::string &path,
                             const ServiceStatus &status);

/**
 * The volatile sidecar: wall-clock ms, worker count, refresh
 * ordinal. Lives next to the snapshot so the artifact itself stays
 * byte-comparable.
 */
Result<void> writeStatusSidecar(const std::string &path,
                                std::uint64_t unix_ms,
                                std::uint64_t jobs,
                                std::uint64_t refreshes);

/**
 * Prometheus text exposition of @p rollup totals plus @p status
 * session-state gauges. Metric names are sanitised (non
 * [a-zA-Z0-9_:] -> '_'); tenants become a `tenant` label.
 */
void writeExposition(std::ostream &os, const Rollup &rollup,
                     const ServiceStatus &status);

/** Sanitise @p name to the Prometheus metric-name alphabet. */
std::string promName(const std::string &name);

} // namespace obs
} // namespace graphene

#endif // OBS_EXPORT_HH
