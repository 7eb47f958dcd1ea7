/**
 * @file
 * The protected rank: a rank of DRAM with one Row Hammer protection
 * scheme per bank, and the one path every ACT and REF takes through
 * them — fault oracle, scheme, then the scheme's NRR and victim-row
 * refreshes (Section IV-A). ActStreamEngine drives one bank of it;
 * ChannelController puts its request front end before a whole rank.
 */

#ifndef MEM_PROTECTED_RANK_HH
#define MEM_PROTECTED_RANK_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "core/protection_scheme.hh"
#include "dram/rank.hh"
#include "obs/obs.hh"
#include "schemes/factory.hh"

namespace graphene {

namespace ckpt {
class Writer;
class Reader;
} // namespace ckpt

namespace mem {

/** Unit weights; cells flip at @p physical_threshold, or at the
 *  scheme's own threshold when that is 0. */
dram::FaultConfig faultConfigFor(const schemes::SchemeSpec &scheme,
                                 std::uint64_t physical_threshold);

class ProtectedRank
{
  public:
    /** Who drives the rank; fixes how the two simulators differ. */
    enum class Owner
    {
        /// `engine.*` metrics, no NRR metric; victim bursts refreshed
        /// at once; the scheme seeded with the spec's seed.
        ActEngine,
        /// `mem.*` metrics and `mem.nrr_events`; a burst of more than
        /// one row becomes its bank's refresh debt (takeDebt()); bank
        /// b's scheme seeded with seed * 1000003 + b.
        Controller,
    };

    /** Bank b's scheme is @p scheme completed with the geometry and
     *  timing; it reports as flat bank @p obs_bank_base + b. */
    ProtectedRank(Owner owner, const dram::TimingParams &timing,
                  unsigned banks, std::uint64_t rows_per_bank,
                  const dram::FaultConfig &fault,
                  const schemes::SchemeSpec &scheme, obs::Sink *sink,
                  unsigned obs_bank_base);

    /** Run an ACT the owner issued: trace and count it, record it in
     *  the fault model, and apply the bank's scheme's response. */
    void activate(Cycle cycle, unsigned bank, Row row);

    /** Issue every REF due up to @p cycle, each observed by every
     *  scheme, whose responses are applied. */
    void catchUpRefresh(Cycle cycle);

    /** Take up to @p most of the busy cycles @p bank owes (the owner
     *  blocks the bank for them); always zero for ActEngine. */
    Cycle takeDebt(unsigned bank, Cycle most);

    dram::Rank &dram() { return _rank; }
    const dram::Rank &dram() const { return _rank; }

    /** Scheme guarding @p bank (nullptr when none). */
    ProtectionScheme *scheme(unsigned bank);

    obs::Probe probe(unsigned bank) const { return _probes[bank]; }
    std::uint64_t acts() const { return _acts; }
    std::uint64_t nrrEvents() const { return _nrrEvents; }

    /** The ACT, NRR and REF counts, the device, every scheme and every
     *  bank's debt (DESIGN.md §14). */
    void saveState(ckpt::Writer &w) const;
    void restoreState(ckpt::Reader &r);

  private:
    /** One owner's metric names (null: not reported). */
    struct MetricNames
    {
        const char *acts, *refs, *victimRows, *nrrEvents;
    };

    /** Carry out _action, @p bank's scheme's response. */
    void applyAction(Cycle cycle, unsigned bank);

    const MetricNames *_names; // analyze: ckpt-exempt(_names) derived from the owner
    unsigned _blastRadius;     // analyze: ckpt-exempt(_blastRadius) config, the scheme spec's
    dram::Rank _rank;
    std::vector<std::unique_ptr<ProtectionScheme>> _schemes;
    std::vector<obs::Probe> _probes; // analyze: ckpt-exempt(_probes) config, re-attached on restore
    /// Busy cycles each bank owes (Controller only; else empty).
    std::vector<Cycle> _debt;
    std::uint64_t _acts = 0;
    std::uint64_t _nrrEvents = 0;
    RefreshAction _action; // analyze: ckpt-exempt(_action) transient scratch, cleared before each use
};

} // namespace mem
} // namespace graphene

#endif // MEM_PROTECTED_RANK_HH
