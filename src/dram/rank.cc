#include "dram/rank.hh"

#include "check/contracts.hh"
#include "ckpt/io.hh"
#include "common/logging.hh"

namespace graphene {
namespace dram {

Rank::Rank(const TimingParams &timing, unsigned num_banks,
           std::uint64_t rows_per_bank, const FaultConfig &fault_config)
    : _cycles(timing.inCycles()), _rowsPerBank(rows_per_bank)
{
    GRAPHENE_CHECK(num_banks > 0, "rank: need at least one bank");

    _banks.reserve(num_banks);
    _faults.reserve(num_banks);
    for (unsigned i = 0; i < num_banks; ++i) {
        _banks.emplace_back(timing, rows_per_bank);
        _faults.emplace_back(fault_config, rows_per_bank);
    }

    _refreshesPerWindow =
        static_cast<std::uint64_t>(timing.tREFW / timing.tREFI);
    GRAPHENE_CHECK(_refreshesPerWindow > 0,
                   "rank: tREFW shorter than tREFI");
    _rowsPerRefresh =
        (rows_per_bank + _refreshesPerWindow - 1) / _refreshesPerWindow;
    _nextRefreshAt = _cycles.cREFI;
}

Bank &
Rank::bank(unsigned idx)
{
    GRAPHENE_CHECK(idx < _banks.size(), "bank index %u out of range",
                   idx);
    return _banks[idx];
}

const Bank &
Rank::bank(unsigned idx) const
{
    GRAPHENE_CHECK(idx < _banks.size(), "bank index %u out of range",
                   idx);
    return _banks[idx];
}

FaultModel &
Rank::faultModel(unsigned bank_idx)
{
    GRAPHENE_CHECK(bank_idx < _faults.size(),
                   "bank index %u out of range", bank_idx);
    return _faults[bank_idx];
}

const FaultModel &
Rank::faultModel(unsigned bank_idx) const
{
    GRAPHENE_CHECK(bank_idx < _faults.size(),
                   "bank index %u out of range", bank_idx);
    return _faults[bank_idx];
}

void
Rank::issueRefresh(Cycle cycle)
{
    GRAPHENE_CHECK(cycle >= _nextRefreshAt,
                   "REF issued before tREFI elapsed");

    const Cycle done = cycle + _cycles.cRFC;
    for (auto &b : _banks)
        b.block(cycle, done);

    for (FaultModel &f : _faults)
        f.onRefreshStripe(_refreshPointer, _rowsPerRefresh);
    _refreshPointer = Row{static_cast<Row::rep>(
        (_refreshPointer.value() + _rowsPerRefresh) % _rowsPerBank)};

    _nextRefreshAt += _cycles.cREFI;
    ++_refreshCount;
}

Cycle
Rank::earliestFawAct(Cycle now) const
{
    if (_fawCount < 4)
        return now;
    // The oldest of the last four ACTs gates the next one.
    const Cycle oldest = _fawActs[_fawHead];
    const Cycle allowed = oldest + _cycles.cFAW;
    return allowed > now ? allowed : now;
}

void
Rank::recordFawAct(Cycle cycle)
{
    // tFAW: the window holds at most four ACTs, so a fifth may only
    // be recorded once the oldest has aged out of the window.
    GRAPHENE_EXPECTS(_fawCount < 4 ||
                         cycle >= _fawActs[_fawHead] + _cycles.cFAW,
                     "fifth ACT recorded inside a tFAW window");
    _fawActs[_fawHead] = cycle;
    _fawHead = (_fawHead + 1) % 4;
    if (_fawCount < 4)
        ++_fawCount;
}

void
Rank::notifyActivate(Cycle cycle, unsigned bank_idx, Row row)
{
    GRAPHENE_CHECK(bank_idx < _faults.size(),
                   "bank index %u out of range", bank_idx);
    _faults[bank_idx].onActivate(cycle, row);
}

unsigned
Rank::issueNrr(Cycle cycle, unsigned bank_idx, Row aggressor,
               unsigned distance)
{
    GRAPHENE_CHECK(bank_idx < _banks.size(),
                   "bank index %u out of range", bank_idx);
    GRAPHENE_CHECK(distance > 0, "NRR with zero blast radius");

    // NRR is executed inside the device, which knows its own row
    // remapping: the refreshed rows are the aggressor's *physical*
    // neighbours (Section II-C — this is what logical-range schemes
    // cannot do from the controller side).
    const std::vector<Row> victims =
        _faults[bank_idx].physicalNeighbors(aggressor, distance);
    unsigned refreshed = 0;
    for (Row v : victims) {
        _faults[bank_idx].onRowRefresh(v);
        ++refreshed;
    }

    // Each victim row costs one internal row cycle; the bank is busy
    // for the duration (Section V-B overhead accounting).
    const Cycle busy = _cycles.cRC * refreshed;
    _banks[bank_idx].block(cycle, cycle + busy);
    _nrrRowCount += refreshed;
    return refreshed;
}

void
Rank::refreshVictimRows(Cycle cycle, unsigned bank_idx,
                        const std::vector<Row> &rows)
{
    const Cycle busy = refreshVictimRowsDeferred(bank_idx, rows);
    _banks[bank_idx].block(cycle, cycle + busy);
}

Cycle
Rank::refreshVictimRowsDeferred(unsigned bank_idx,
                                const std::vector<Row> &rows)
{
    GRAPHENE_CHECK(bank_idx < _banks.size(),
                   "bank index %u out of range", bank_idx);
    for (Row r : rows) {
        GRAPHENE_CHECK(r.value() < _rowsPerBank,
                       "victim row %u out of range", r.value());
        _faults[bank_idx].onRowRefresh(r);
    }
    _nrrRowCount += rows.size();
    return _cycles.cRC * rows.size();
}

void
Rank::saveState(ckpt::Writer &w) const
{
    w.u64(_banks.size());
    for (const Bank &b : _banks)
        b.saveState(w);
    w.u64(_faults.size());
    for (const FaultModel &f : _faults)
        f.saveState(w);
    w.u32(_refreshPointer.value());
    w.u64(_nextRefreshAt.value());
    w.u64(_refreshCount);
    w.u64(_nrrRowCount);
    for (const Cycle c : _fawActs)
        w.u64(c.value());
    w.u32(_fawHead);
    w.u32(_fawCount);
}

void
Rank::restoreState(ckpt::Reader &r)
{
    // Geometry is config, not state: the counts must match the rank
    // this restore is aimed at, or the checkpoint was produced by a
    // different configuration than its fingerprint claims.
    if (r.u64() != _banks.size()) {
        r.fail();
        return;
    }
    for (Bank &b : _banks)
        b.restoreState(r);
    if (r.u64() != _faults.size()) {
        r.fail();
        return;
    }
    for (FaultModel &f : _faults)
        f.restoreState(r);
    _refreshPointer = Row(r.u32());
    _nextRefreshAt = Cycle(r.u64());
    _refreshCount = r.u64();
    _nrrRowCount = r.u64();
    for (Cycle &c : _fawActs)
        c = Cycle(r.u64());
    _fawHead = r.u32();
    _fawCount = r.u32();
    if (_fawHead >= 4 || _fawCount > 4)
        r.fail();
}

} // namespace dram
} // namespace graphene
