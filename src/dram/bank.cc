#include "dram/bank.hh"

#include <algorithm>

#include "check/contracts.hh"
#include "ckpt/io.hh"
#include "common/logging.hh"
#include "dram/command.hh"

namespace graphene {
namespace dram {

const char *
commandName(Command cmd)
{
    switch (cmd) {
      case Command::ACT: return "ACT";
      case Command::PRE: return "PRE";
      case Command::RD:  return "RD";
      case Command::WR:  return "WR";
      case Command::REF: return "REF";
      case Command::NRR: return "NRR";
    }
    return "?";
}

Bank::Bank(const TimingParams &timing, std::uint64_t num_rows)
    : _cycles(timing.inCycles()), _numRows(num_rows)
{
    GRAPHENE_CHECK(num_rows > 0, "bank: need at least one row");
}

Cycle
Bank::earliestAct(Cycle now) const
{
    return std::max(now, _actAllowedAt);
}

Cycle
Bank::earliestReadWrite(Cycle now) const
{
    return std::max(now, _rwAllowedAt);
}

Cycle
Bank::earliestPrecharge(Cycle now) const
{
    return std::max(now, _preAllowedAt);
}

void
Bank::issueAct(Cycle cycle, Row row)
{
    GRAPHENE_CHECK(!isOpen(), "ACT to open bank (row %u open)",
                   _openRow.value());
    GRAPHENE_CHECK(cycle >= _actAllowedAt,
                   "ACT at %llu before allowed %llu",
                   static_cast<unsigned long long>(cycle.value()),
                   static_cast<unsigned long long>(
                       _actAllowedAt.value()));
    GRAPHENE_CHECK(row.value() < _numRows,
                   "ACT to out-of-range row %u", row.value());

    _openRow = row;
    _rwAllowedAt = cycle + _cycles.cRCD;
    _preAllowedAt = cycle + _cycles.cRAS;
    // tRC lower-bounds the ACT-to-ACT interval to the same bank; the
    // next ACT is additionally gated by the future precharge.
    _actAllowedAt = cycle + _cycles.cRC;
    _lastActAt = cycle;
    _everActivated = true;
    ++_actCount;
    GRAPHENE_ENSURES(isOpen() && _openRow == row,
                     "ACT must leave its row open");
    GRAPHENE_ENSURES(_actAllowedAt >= cycle + _cycles.cRC &&
                         _preAllowedAt >= cycle + _cycles.cRAS,
                     "ACT must arm the tRC and tRAS windows");
}

Cycle
Bank::issueReadWrite(Cycle cycle)
{
    GRAPHENE_CHECK(isOpen(), "RD/WR with no open row");
    GRAPHENE_CHECK(cycle >= _rwAllowedAt,
                   "RD/WR issued before tRCD elapsed");
    // Column accesses pipeline; the next is allowed a burst later.
    _rwAllowedAt = cycle + _cycles.cBL;
    _preAllowedAt = std::max(_preAllowedAt, cycle + _cycles.cBL);
    const Cycle done = cycle + _cycles.cCL + _cycles.cBL;
    GRAPHENE_ENSURES(done >= cycle,
                     "column access cannot finish in the past");
    return done;
}

void
Bank::issuePrecharge(Cycle cycle)
{
    GRAPHENE_CHECK(isOpen(), "PRE with no open row");
    GRAPHENE_CHECK(cycle >= _preAllowedAt,
                   "PRE issued before tRAS elapsed");
    _openRow = Row::invalid();
    _actAllowedAt = std::max(_actAllowedAt, cycle + _cycles.cRP);
    GRAPHENE_ENSURES(!isOpen() &&
                         _actAllowedAt >= cycle + _cycles.cRP,
                     "PRE must close the row and arm tRP");
}

void
Bank::saveState(ckpt::Writer &w) const
{
    w.u32(_openRow.value());
    w.u64(_actAllowedAt.value());
    w.u64(_rwAllowedAt.value());
    w.u64(_preAllowedAt.value());
    w.u64(_lastActAt.value());
    w.boolean(_everActivated);
    w.u64(_actCount.value());
}

void
Bank::restoreState(ckpt::Reader &r)
{
    _openRow = Row(r.u32());
    _actAllowedAt = Cycle(r.u64());
    _rwAllowedAt = Cycle(r.u64());
    _preAllowedAt = Cycle(r.u64());
    _lastActAt = Cycle(r.u64());
    _everActivated = r.boolean();
    _actCount = ActCount(r.u64());
    if (_openRow.isValid() && _openRow.value() >= _numRows)
        r.fail();
}

void
Bank::block(Cycle from, Cycle until)
{
    GRAPHENE_CHECK(until >= from,
                   "bank blocked over a negative interval");
    _openRow = Row::invalid();
    _actAllowedAt = std::max(_actAllowedAt, until);
    _rwAllowedAt = std::max(_rwAllowedAt, until);
    _preAllowedAt = std::max(_preAllowedAt, until);
    GRAPHENE_ENSURES(!isOpen() && _actAllowedAt >= until,
                     "a blocked bank must stay closed until released");
}

} // namespace dram
} // namespace graphene
