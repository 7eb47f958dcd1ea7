/**
 * @file
 * A single-channel DDR4 memory controller with a pluggable Row Hammer
 * protection scheme per bank.
 *
 * The controller services requests transaction-by-transaction with
 * precise bank timing (ACT/PRE/RD/WR gated by tRC, tRCD, tRP, tRAS),
 * a shared data bus, periodic auto-refresh (REF every tREFI, tRFC
 * busy), and an open-page policy with a row-hit cap approximating the
 * paper's minimalist-open configuration. Every ACT runs through the
 * ProtectedRank, whose victim refreshes keep the bank busy for tRC
 * per refreshed row — the overhead accounting of Section V-B. A burst
 * of more than one row is owed as refresh debt and paid down one row
 * before each later access to its bank, the way real controllers
 * interleave large bursts (CBT's range refreshes) with demand traffic.
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
#include <vector>

#include "common/types.hh"
#include "mem/protected_rank.hh"
#include "mem/request.hh"

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
 * One channel: the request front end (page policy, tFAW, data bus,
 * refresh-debt pay-down) of one protected rank.
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
    void catchUpRefresh(Cycle cycle) { _rank.catchUpRefresh(cycle); }

    dram::Rank &rank() { return _rank.dram(); }
    const dram::Rank &rank() const { return _rank.dram(); }

    /** Protection scheme guarding @p bank (nullptr when none). */
    ProtectionScheme *scheme(unsigned bank) { return _rank.scheme(bank); }

    /** Observability probe of @p bank (detached when unconfigured). */
    obs::Probe probe(unsigned bank) const { return _rank.probe(bank); }

    /** Victim rows refreshed across the channel so far. */
    std::uint64_t victimRowsRefreshed() const
    {
        return rank().nrrRowCount();
    }

    /** Total ACT commands issued. */
    ActCount actCount() const { return ActCount{_rank.acts()}; }

    /** Total requests serviced. */
    std::uint64_t requestCount() const { return _requests; }

    /** Row-buffer hit fraction so far. */
    double rowHitRate() const;

  private:
    ControllerConfig _config;
    dram::CycleTiming _cycles;
    ProtectedRank _rank;
    std::vector<unsigned> _consecutiveHits;
    Cycle _busFreeAt{};
    std::uint64_t _requests = 0;
    std::uint64_t _rowHits = 0;
};

} // namespace mem
} // namespace graphene

#endif // MEM_CONTROLLER_HH
