#include "schemes/prohit.hh"

#include "ckpt/io.hh"

#include <algorithm>

#include "check/contracts.hh"
#include "common/bits.hh"
#include "common/logging.hh"

namespace graphene {
namespace schemes {

Result<void>
ProHitConfig::validate() const
{
    ErrorCollector errors(ErrorCode::Config, "prohit config");
    if (hotEntries == 0 || coldEntries == 0)
        errors.add("tables must have at least one entry each");
    if (insertionProbability < 0.0 || insertionProbability > 1.0 ||
        refreshProbability < 0.0 || refreshProbability > 1.0)
        errors.add("probability out of range");
    if (rowsPerBank == 0)
        errors.add("need rows");
    return errors.finish();
}

ProHit::ProHit(const ProHitConfig &config)
    : _config(config), _rng(config.seed)
{
    const Result<void> valid = _config.validate();
    GRAPHENE_CHECK(valid.ok(), "prohit: invalid config: %s",
                   valid.error().describe().c_str());
}

std::string
ProHit::name() const
{
    return "PRoHIT";
}

void
ProHit::present(Row victim)
{
    auto hot_it = std::find(_hot.begin(), _hot.end(), victim);
    if (hot_it != _hot.end()) {
        // Frequency promotion: move one slot toward the top.
        if (hot_it != _hot.begin())
            std::iter_swap(hot_it, hot_it - 1);
        return;
    }

    auto cold_it = std::find(_cold.begin(), _cold.end(), victim);
    if (cold_it != _cold.end()) {
        _cold.erase(cold_it);
        if (_hot.size() < _config.hotEntries) {
            _hot.push_back(victim);
        } else {
            // Displace the coldest hot entry into the cold table.
            const Row evictee = _hot.back();
            _hot.back() = victim;
            _cold.push_back(evictee);
            if (_cold.size() > _config.coldEntries)
                _cold.pop_front();
        }
        GRAPHENE_INVARIANT(_hot.size() <= _config.hotEntries &&
                               _cold.size() <= _config.coldEntries,
                           "promotion overflowed a history table");
        return;
    }

    _cold.push_back(victim);
    if (_cold.size() > _config.coldEntries)
        _cold.pop_front();

    // Both tables are fixed SRAM structures; every insertion path
    // above must leave them within their configured budgets.
    GRAPHENE_INVARIANT(_hot.size() <= _config.hotEntries &&
                           _cold.size() <= _config.coldEntries,
                       "history tables outgrew their SRAM budget");
}

void
ProHit::onActivate(Cycle cycle, Row row, RefreshAction &action)
{
    (void)cycle;
    (void)action;
    if (!_rng.bernoulli(_config.insertionProbability))
        return;
    if (row.value() >= 1)
        present(row - 1);
    if (row.value() + 1 < _config.rowsPerBank)
        present(row + 1);
    // Entry-point restatement of present()'s table-budget
    // invariant: whatever combination of promotions and insertions
    // the two neighbours triggered, the SRAM tables are unchanged
    // in capacity.
    GRAPHENE_ENSURES(_hot.size() <= _config.hotEntries &&
                         _cold.size() <= _config.coldEntries,
                     "an ACT left a history table over budget");
}

void
ProHit::onRefresh(Cycle cycle, RefreshAction &action)
{
    if (_hot.empty() || !_rng.bernoulli(_config.refreshProbability))
        return;
    const Row victim = _hot.front();
    action.victimRows.push_back(victim);
    _hot.erase(_hot.begin());
    noteVictimRefresh(cycle, victim, 1);
}

TableCost
ProHit::cost() const
{
    // Both tables store a row address per entry in SRAM; the hot
    // table's ordering is positional, needing no extra bits.
    const unsigned addr_bits = bitsFor(_config.rowsPerBank - 1);
    TableCost cost;
    cost.entries = _config.hotEntries + _config.coldEntries;
    cost.sramBits = static_cast<std::uint64_t>(cost.entries) * addr_bits;
    return cost;
}


void
ProHit::saveState(ckpt::Writer &w) const
{
    ProtectionScheme::saveState(w);
    std::uint64_t rng[4];
    _rng.stateWords(rng);
    for (const std::uint64_t word : rng)
        w.u64(word);
    w.u64(_hot.size());
    for (const Row row : _hot)
        w.u32(row.value());
    w.u64(_cold.size());
    for (const Row row : _cold)
        w.u32(row.value());
}

void
ProHit::restoreState(ckpt::Reader &r)
{
    ProtectionScheme::restoreState(r);
    std::uint64_t rng[4];
    for (std::uint64_t &word : rng)
        word = r.u64();
    _rng.setStateWords(rng);
    _hot.clear();
    const std::uint64_t hot_size = r.u64();
    if (hot_size > _config.hotEntries) {
        r.fail();
        return;
    }
    for (std::uint64_t i = 0; i < hot_size && !r.failed(); ++i)
        _hot.push_back(Row{r.u32()});
    _cold.clear();
    const std::uint64_t cold_size = r.u64();
    if (cold_size > _config.coldEntries) {
        r.fail();
        return;
    }
    for (std::uint64_t i = 0; i < cold_size && !r.failed(); ++i)
        _cold.push_back(Row{r.u32()});
}

} // namespace schemes
} // namespace graphene
