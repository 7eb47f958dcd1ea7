#include "schemes/mrloc.hh"

#include "ckpt/io.hh"

#include <algorithm>

#include "check/contracts.hh"
#include "common/bits.hh"
#include "common/logging.hh"

namespace graphene {
namespace schemes {

Result<void>
MrLocConfig::validate() const
{
    ErrorCollector errors(ErrorCode::Config, "mrloc config");
    if (queueEntries == 0)
        errors.add("queue must have at least one entry");
    if (pBase < 0 || pBase > 1 || pHot < 0 || pHot > 1)
        errors.add("probability out of range");
    if (rowsPerBank == 0)
        errors.add("need rows");
    return errors.finish();
}

MrLoc::MrLoc(const MrLocConfig &config)
    : _config(config), _rng(config.seed)
{
    const Result<void> valid = _config.validate();
    GRAPHENE_CHECK(valid.ok(), "mrloc: invalid config: %s",
                   valid.error().describe().c_str());
}

std::string
MrLoc::name() const
{
    return "MRLoc";
}

void
MrLoc::touch(Cycle cycle, Row victim, RefreshAction &action)
{
    auto it = std::find(_queue.begin(), _queue.end(), victim);
    if (it != _queue.end()) {
        // Recency-weighted refresh probability: most recent entries
        // (near the back) are the likeliest Row Hammer victims.
        const double recency =
            static_cast<double>(it - _queue.begin() + 1) /
            static_cast<double>(_queue.size());
        const double p = _config.pBase / 2.0 +
                         (_config.pHot - _config.pBase / 2.0) * recency;
        if (_rng.bernoulli(p)) {
            action.victimRows.push_back(victim);
            noteVictimRefresh(cycle, victim, 1);
        }
        _queue.erase(it);
        _queue.push_back(victim);
        return;
    }

    if (_rng.bernoulli(_config.pBase / 2.0)) {
        action.victimRows.push_back(victim);
        noteVictimRefresh(cycle, victim, 1);
    }
    _queue.push_back(victim);
    if (_queue.size() > _config.queueEntries)
        _queue.pop_front();
    // The recency weighting divides by the queue position, so both
    // exit paths must leave the queue non-empty and within budget.
    GRAPHENE_INVARIANT(!_queue.empty() &&
                           _queue.size() <= _config.queueEntries,
                       "victim queue left its configured bounds");
}

void
MrLoc::onActivate(Cycle cycle, Row row, RefreshAction &action)
{
    // The neighbour guards below assume an in-bank activation; an
    // out-of-range row would silently treat row-1/row+1 as victims
    // of a different bank's aggressor.
    GRAPHENE_EXPECTS(row.value() < _config.rowsPerBank,
                     "activated row lies outside the bank");
    if (row.value() >= 1)
        touch(cycle, row - 1, action);
    if (row.value() + 1 < _config.rowsPerBank)
        touch(cycle, row + 1, action);
}

TableCost
MrLoc::cost() const
{
    const unsigned addr_bits = bitsFor(_config.rowsPerBank - 1);
    TableCost cost;
    cost.entries = _config.queueEntries;
    cost.sramBits =
        static_cast<std::uint64_t>(cost.entries) * addr_bits;
    return cost;
}


void
MrLoc::saveState(ckpt::Writer &w) const
{
    ProtectionScheme::saveState(w);
    std::uint64_t rng[4];
    _rng.stateWords(rng);
    for (const std::uint64_t word : rng)
        w.u64(word);
    w.u64(_queue.size());
    for (const Row row : _queue)
        w.u32(row.value());
}

void
MrLoc::restoreState(ckpt::Reader &r)
{
    ProtectionScheme::restoreState(r);
    std::uint64_t rng[4];
    for (std::uint64_t &word : rng)
        word = r.u64();
    _rng.setStateWords(rng);
    _queue.clear();
    const std::uint64_t queue_size = r.u64();
    if (queue_size > _config.queueEntries) {
        r.fail();
        return;
    }
    for (std::uint64_t i = 0; i < queue_size && !r.failed(); ++i)
        _queue.push_back(Row{r.u32()});
}

} // namespace schemes
} // namespace graphene
