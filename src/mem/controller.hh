/**
 * @file
 * A single-channel DDR4 memory controller with a pluggable Row Hammer
 * protection scheme per bank.
 *
 * The controller services requests transaction-by-transaction with
 * precise bank timing (ACT/PRE/RD/WR gated by tRC, tRCD, tRP, tRAS),
 * a shared data bus, periodic auto-refresh (REF every tREFI, tRFC
 * busy), and an open-page policy with a row-hit cap approximating the
 * paper's minimalist-open configuration. Every ACT is reported to the
 * bank's protection scheme; requested victim refreshes are applied
 * immediately as NRR commands or explicit victim-row refreshes that
 * keep the bank busy for tRC per refreshed row — exactly the overhead
 * accounting of Section V-B.
 *
 * Scheduling simplification vs. the paper's PAR-BS: requests are
 * serviced per bank in arrival order with row-hit batching. Because
 * every evaluated metric (victim-refresh count, refresh energy, bank
 * busy time) is a function of the per-bank ACT stream, reordering
 * policies shift absolute throughput but not the relative overheads
 * the paper reports; DESIGN.md discusses this substitution.
 */

#ifndef MEM_CONTROLLER_HH
#define MEM_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/protection_scheme.hh"
#include "dram/address.hh"
#include "dram/rank.hh"
#include "mem/request.hh"
#include "obs/obs.hh"
#include "schemes/factory.hh"

namespace graphene {
namespace mem {

/** Static configuration of a channel controller. */
struct ControllerConfig
{
    dram::TimingParams timing = dram::TimingParams::ddr4_2400();
    unsigned banksPerRank = 16;
    std::uint64_t rowsPerBank = 65536;
    dram::FaultConfig fault;
    schemes::SchemeSpec scheme;

    /** Consecutive row hits before the page is closed
     *  (minimalist-open style). */
    unsigned pageHitLimit = 4;

    /**
     * Victim-refresh bursts larger than this many rows are drained
     * incrementally: the bank owes the burst's busy time as "refresh
     * debt" paid down this many rows at a time before subsequent
     * demand accesses, instead of one atomic multi-microsecond
     * block. Real controllers interleave large bursts (CBT's range
     * refreshes) with demand traffic exactly this way — each victim
     * row is an internal ACT/PRE pair that demand requests can slip
     * between. One row per access keeps the effective service time
     * below the arrival spacing and avoids pathological queueing
     * that the atomic model suffers. Small bursts (NRR's 2n rows)
     * stay atomic. Zero disables chunking (fully atomic bursts).
     */
    unsigned refreshChunkRows = 1;

    /**
     * Observability sink the controller reports into (null: none).
     * Deliberately excluded from every configuration fingerprint —
     * tracing a run must not change its cache key or its results
     * (DESIGN.md §11).
     */
    obs::Sink *obs = nullptr;

    /** Flat bank id of this channel's bank 0 in the sink (channels
     *  own disjoint bank ranges of one shared sink). */
    unsigned obsBankBase = 0;
};

/** Outcome of servicing one request. */
struct ServiceResult
{
    Cycle completion{};   ///< Data available on the bus.
    bool rowHit = false;  ///< Serviced from the open row buffer.
    bool didAct = false;  ///< An ACT was required.
};

/**
 * One channel: one rank of banks, one protection scheme instance per
 * bank, one data bus.
 */
class ChannelController
{
  public:
    explicit ChannelController(const ControllerConfig &config);

    /**
     * Service one request whose decoded coordinates lie in this
     * channel. Requests must be presented in non-decreasing issue
     * order per bank.
     */
    ServiceResult access(Cycle issue, unsigned bank, Row row,
                         bool is_write);

    /** Apply all refreshes due up to @p cycle (also done lazily). */
    void catchUpRefresh(Cycle cycle);

    dram::Rank &rank() { return _rank; }
    const dram::Rank &rank() const { return _rank; }

    /** Protection scheme guarding @p bank (nullptr when none). */
    ProtectionScheme *scheme(unsigned bank);

    /** Observability probe of @p bank (detached when unconfigured). */
    obs::Probe probe(unsigned bank) const { return _probes[bank]; }

    /** Victim rows refreshed across the channel so far. */
    std::uint64_t victimRowsRefreshed() const
    {
        return _rank.nrrRowCount();
    }

    /** Total ACT commands issued. */
    ActCount actCount() const { return ActCount{_acts}; }

    /** Total requests serviced. */
    std::uint64_t requestCount() const { return _requests; }

    /** Row-buffer hit fraction so far. */
    double rowHitRate() const;

    const ControllerConfig &config() const { return _config; }

  private:
    void applyAction(Cycle cycle, unsigned bank,
                     const RefreshAction &action);

    ControllerConfig _config;
    dram::CycleTiming _cycles;
    dram::Rank _rank;
    std::vector<std::unique_ptr<ProtectionScheme>> _schemes;
    /// One probe per bank (all empty under GRAPHENE_OBS_OFF).
    std::vector<obs::Probe> _probes;
    std::vector<unsigned> _consecutiveHits;
    /// Outstanding victim-refresh busy cycles owed per bank.
    std::vector<Cycle> _refreshDebt;
    Cycle _busFreeAt{};
    std::uint64_t _acts = 0;
    std::uint64_t _requests = 0;
    std::uint64_t _rowHits = 0;
    RefreshAction _scratchAction;
};

} // namespace mem
} // namespace graphene

#endif // MEM_CONTROLLER_HH
