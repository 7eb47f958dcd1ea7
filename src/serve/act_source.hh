/**
 * @file
 * The bounded-memory streaming ingest layer of the serving subsystem
 * (DESIGN.md §15).
 *
 * An ActSource produces the row-activation stream one *chunk* at a
 * time: the consumer pulls at most `chunk` rows per fill() call, so
 * peak ingest buffering is O(chunk) whatever the stream length — a
 * week-long trace file streams through the same few kilobytes as a
 * ten-second one. Two implementations cover the serving shapes:
 *
 *  - ChunkedTraceSource reads an on-disk ACT trace through
 *    workloads::ActTraceCursor, never materializing the file, and
 *    loops it end-to-end (the same replay semantics as
 *    workloads::TracePattern, without TracePattern's whole-file
 *    vector);
 *  - PatternSource adapts any workloads::ActPattern generator —
 *    the synthetic tenant profiles and the seeded adversarial
 *    families — into an unbounded stream.
 *
 * StreamPattern is the bridge into the simulator: an ActPattern
 * whose next() drains a single-chunk buffer and refills it from the
 * source on demand. The pull discipline *is* the backpressure
 * contract: a source is only ever asked for rows the session is
 * about to simulate, so an arbitrarily fast producer cannot grow
 * memory beyond one chunk (peakBuffered() proves it, and the
 * bounded-memory ctest enforces it).
 *
 * Every source serializes its stream position through the ckpt layer
 * (pass/record counters for files, RNG state for generators), which
 * is what makes a whole Session — engine plus ingest — resumable and
 * forkable from one checkpoint artifact.
 */

#ifndef SERVE_ACT_SOURCE_HH
#define SERVE_ACT_SOURCE_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/types.hh"
#include "workloads/act_patterns.hh"
#include "workloads/trace_io.hh"

namespace graphene {
namespace serve {

/**
 * Declarative description of one stream: enough to (re)build the
 * source on admission, resume, and cross-scheme forking. Serialized
 * into each session file; describe() feeds the engine's config
 * fingerprint so a checkpoint can never transplant onto a session
 * fed from a different stream.
 */
struct SourceSpec
{
    enum class Kind : std::uint8_t
    {
        TraceFile = 0, ///< Chunked reader over an ACT trace file.
        Pattern = 1,   ///< Generator family (unbounded).
    };

    Kind kind = Kind::Pattern;

    /** TraceFile: path of the ACT trace. */
    std::string path;

    /** Pattern: family name — uniform, s1, s2, s3, s4, double,
     *  worst. */
    std::string family = "uniform";

    /** Pattern: family cardinality where it applies (s1/s2 row
     *  count, worst-case distinct rows). */
    unsigned param = 10;

    /** Pattern: generator seed. */
    std::uint64_t seed = 1;

    /** Stable identity string (folded into config fingerprints). */
    std::string describe() const;

    /** All rules checked, every violation listed (ErrorCollector). */
    Result<void> validate() const;

    void save(ckpt::Writer &w) const;
    static SourceSpec load(ckpt::Reader &r);
};

/** A chunked, checkpointable stream of activated row addresses. */
class ActSource
{
  public:
    virtual ~ActSource() = default;

    /** Stable identity (SourceSpec::describe of the producer). */
    virtual std::string name() const = 0;

    /**
     * Append up to @p max rows to @p out; returns the number
     * appended. Sources here are logically unbounded (files loop),
     * so 0 only accompanies an error path. Typed Parse/Io errors —
     * a malformed trace line or a dying stream fails the session,
     * never aborts the service.
     */
    virtual Result<std::size_t> fill(std::vector<Row> &out,
                                     std::size_t max) = 0;

    /** Serialize the stream position (DESIGN.md §15). */
    virtual void saveState(ckpt::Writer &w) const = 0;

    /**
     * Inverse of saveState(). Payload-shape problems latch on @p r;
     * environment problems (a trace file that vanished) are deferred
     * and surface as the next fill()'s typed error, keeping ckpt
     * decoding distinct from IO failure.
     */
    virtual void restoreState(ckpt::Reader &r) = 0;
};

/**
 * Streams an on-disk ACT trace in O(chunk) memory, looping at EOF.
 * Rows are validated against the bank geometry as they stream; the
 * file is re-scanned (never held) on restore, so checkpoint size is
 * independent of both trace length and position.
 */
class ChunkedTraceSource : public ActSource
{
  public:
    ChunkedTraceSource(std::string path, std::uint64_t rows_per_bank);

    std::string name() const override;
    Result<std::size_t> fill(std::vector<Row> &out,
                             std::size_t max) override;

    /** Completed end-to-end passes over the file. */
    std::uint64_t passes() const { return _pass; }

    /** Records consumed within the current pass. */
    std::uint64_t consumedThisPass() const
    {
        return _consumedThisPass;
    }

    void saveState(ckpt::Writer &w) const override;
    void restoreState(ckpt::Reader &r) override;

  private:
    Result<void> reopen();
    Result<void> skipRecords(std::uint64_t n);

    std::string _path;          // analyze: ckpt-exempt(_path) config, fixed at construction
    std::uint64_t _rowsPerBank; // analyze: ckpt-exempt(_rowsPerBank) config, fixed at construction
    std::ifstream _file;        // analyze: ckpt-exempt(_file) OS handle, reopened by restoreState
    // analyze: ckpt-exempt(_cursor) rebuilt by replaying the saved pass offset
    std::optional<workloads::ActTraceCursor> _cursor;
    std::uint64_t _pass = 0;
    std::uint64_t _consumedThisPass = 0;
    /// Deferred restore-time failure, reported by the next fill().
    // analyze: ckpt-exempt(_pending) transient restore diagnostic, empty in any state that was saved
    std::optional<Error> _pending;
};

/** Adapts an ActPattern generator into an unbounded source. */
class PatternSource : public ActSource
{
  public:
    PatternSource(std::string name,
                  std::unique_ptr<workloads::ActPattern> pattern);

    std::string name() const override;
    Result<std::size_t> fill(std::vector<Row> &out,
                             std::size_t max) override;

    void saveState(ckpt::Writer &w) const override;
    void restoreState(ckpt::Reader &r) override;

  private:
    std::string _name; // analyze: ckpt-exempt(_name) config, fixed at construction
    std::unique_ptr<workloads::ActPattern> _pattern;
};

/** Build the source @p spec describes (typed error on a bad spec). */
Result<std::unique_ptr<ActSource>>
makeSource(const SourceSpec &spec, std::uint64_t rows_per_bank);

/**
 * The ActPattern the engine actually consumes: drains a one-chunk
 * buffer refilled on demand from the source. Source errors latch
 * (failed()/error()) and the pattern degrades to row 0 so the
 * engine's contract (next() always yields a row) holds; the session
 * checks the latch after every quantum and fails cleanly.
 */
class StreamPattern : public workloads::ActPattern
{
  public:
    /** @param chunk_rows max rows buffered (the O(chunk) bound). */
    StreamPattern(ActSource &source, std::size_t chunk_rows);

    std::string name() const override;
    Row next() override;

    bool failed() const { return _error.has_value(); }
    const Error &error() const { return *_error; }

    /** Rows handed to the engine so far. */
    std::uint64_t consumed() const { return _consumed; }

    /** High-water mark of the ingest buffer (≤ chunk_rows always —
     *  the bounded-memory guarantee, asserted in ctest). */
    std::size_t peakBuffered() const { return _peakBuffered; }

    /** Rows buffered right now (telemetry: occupancy vs chunk). */
    std::size_t buffered() const { return _buf.size() - _pos; }

    /** Buffer remainder + consumed count + source position. */
    void saveState(ckpt::Writer &w) const override;
    void restoreState(ckpt::Reader &r) override;

  private:
    void refill();

    ActSource &_source;              // analyze: ckpt-exempt(_source) delegated via saveState recursion
    std::size_t _chunkRows;          // analyze: ckpt-exempt(_chunkRows) config, fixed at construction
    std::string _sourceName;         // analyze: ckpt-exempt(_sourceName) config, fixed at construction
    std::vector<Row> _buf;
    std::size_t _pos = 0;
    std::uint64_t _consumed = 0;
    std::size_t _peakBuffered = 0;   // analyze: ckpt-exempt(_peakBuffered) runtime stat, not semantic state
    std::optional<Error> _error;     // analyze: ckpt-exempt(_error) failed sessions are never checkpointed
};

} // namespace serve
} // namespace graphene

#endif // SERVE_ACT_SOURCE_HH
