#include "schemes/twice.hh"

#include "ckpt/io.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "check/contracts.hh"
#include "common/bits.hh"
#include "common/logging.hh"

namespace graphene {
namespace schemes {

std::uint64_t
TwiCeConfig::intervalsPerWindow() const
{
    return static_cast<std::uint64_t>(timing.tREFW / timing.tREFI);
}

double
TwiCeConfig::pruneThreshold() const
{
    return static_cast<double>(triggerThreshold()) /
           static_cast<double>(intervalsPerWindow());
}

unsigned
TwiCeConfig::requiredEntries() const
{
    // A lifetime-i entry must hold count >= thPI * i; at most
    // maxActsPerInterval * i activations exist to distribute among
    // lifetime-i entries, so at most maxActs/thPI entries survive per
    // lifetime class weighted 1/i — the harmonic sum over classes.
    const double max_acts_per_interval =
        (timing.tREFI - timing.tRFC) / timing.tRC;
    const std::uint64_t n = intervalsPerWindow();
    double harmonic = 0.0;
    for (std::uint64_t i = 1; i <= n; ++i)
        harmonic += 1.0 / static_cast<double>(i);
    const double bound =
        max_acts_per_interval / pruneThreshold() * harmonic;
    return static_cast<unsigned>(std::ceil(bound));
}

Result<void>
TwiCeConfig::validate() const
{
    ErrorCollector errors(ErrorCode::Config, "twice config");
    if (triggerThreshold() == 0)
        errors.add("Row Hammer threshold too small");
    if (rowsPerBank == 0)
        errors.add("need rows");
    if (intervalsPerWindow() == 0)
        errors.add("no pruning intervals; tREFI exceeds tREFW");
    return errors.finish();
}

TwiCe::TwiCe(const TwiCeConfig &config)
    : _config(config),
      _capacity(config.maxEntries ? config.maxEntries
                                  : config.requiredEntries()),
      _trigger(config.triggerThreshold()),
      _thPi(config.pruneThreshold()),
      _intervals(config.intervalsPerWindow())
{
    const Result<void> valid = config.validate();
    GRAPHENE_CHECK(valid.ok(), "twice: invalid config: %s",
                   valid.error().describe().c_str());
    _entries.reserve(_capacity);
}

std::string
TwiCe::name() const
{
    return "TWiCe";
}

void
TwiCe::onActivate(Cycle cycle, Row row, RefreshAction &action)
{
    auto it = _entries.find(row);
    if (it == _entries.end()) {
        if (_entries.size() >= _capacity) {
            prune();
            if (_entries.size() >= _capacity) {
                // Conservative fallback: protect the victims now
                // rather than lose track of the aggressor.
                action.nrrAggressors.push_back(row);
                noteVictimRefresh(cycle, row);
                ++_overflowFallbacks;
                return;
            }
        }
        it = _entries.emplace(row, Entry{}).first;
        if (_entries.size() > _peakEntries)
            _peakEntries = static_cast<unsigned>(_entries.size());
    }

    Entry &e = it->second;
    ++e.count;
    if (e.count >= _trigger) {
        action.nrrAggressors.push_back(row);
        noteVictimRefresh(cycle, row);
        e.count = 0;
    }
    // The no-false-negative argument needs every tracked count to
    // stay strictly below the trigger between activations, and the
    // table to respect its derived entry bound.
    GRAPHENE_ENSURES(e.count < _trigger,
                     "count at the trigger survived onActivate");
    GRAPHENE_INVARIANT(_entries.size() <= _capacity,
                       "TWiCe table outgrew its derived capacity");
}

void
TwiCe::prune()
{
    std::vector<Row> dead;
    // analyze: allow(unordered-map-iteration) (collect-then-erase, per-entry test)
    for (auto &kv : _entries) {
        const double needed =
            _thPi * static_cast<double>(kv.second.life);
        if (static_cast<double>(kv.second.count) < needed ||
            kv.second.life >= _intervals) {
            dead.push_back(kv.first);
        }
    }
    for (Row r : dead)
        _entries.erase(r);
}

void
TwiCe::onRefresh(Cycle cycle, RefreshAction &action)
{
    (void)cycle;
    (void)action;
    // analyze: allow(unordered-map-iteration) — increments every entry uniformly.
    for (auto &kv : _entries)
        ++kv.second.life;
    prune();
    // The pruning pass must leave no entry at or past the interval
    // bound, or lifetimes (and the thPI pruning ratio) silently
    // saturate.
    GRAPHENE_INVARIANT(
        std::all_of(_entries.begin(), _entries.end(),
                    [&](const auto &kv) {
                        return kv.second.life < _intervals;
                    }),
        "an entry outlived the pruning interval");
}

TableCost
TwiCe::cost() const
{
    const unsigned addr_bits = bitsFor(_config.rowsPerBank - 1);
    const unsigned count_bits = bitsFor(_trigger);
    const unsigned life_bits = bitsFor(_intervals);

    // The row address is searched associatively (CAM); counts,
    // lifetimes, and the valid bit live in SRAM (Table IV layout).
    TableCost cost;
    cost.entries = _capacity;
    cost.camBits = static_cast<std::uint64_t>(_capacity) * addr_bits;
    cost.sramBits = static_cast<std::uint64_t>(_capacity) *
                    (count_bits + life_bits + 1);
    return cost;
}


void
TwiCe::saveState(ckpt::Writer &w) const
{
    ProtectionScheme::saveState(w);
    // Sorted by row: the unordered map's iteration order must never
    // reach the artifact bytes.
    std::vector<std::pair<Row, Entry>> entries(_entries.begin(),
                                               _entries.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    w.u64(entries.size());
    for (const auto &[row, entry] : entries) {
        w.u32(row.value());
        w.u64(entry.count);
        w.u64(entry.life);
    }
    w.u32(_peakEntries);
    w.u64(_overflowFallbacks);
}

void
TwiCe::restoreState(ckpt::Reader &r)
{
    ProtectionScheme::restoreState(r);
    _entries.clear();
    const std::uint64_t entry_count = r.u64();
    if (entry_count > _capacity) {
        r.fail();
        return;
    }
    for (std::uint64_t i = 0; i < entry_count && !r.failed(); ++i) {
        const Row row{r.u32()};
        Entry entry;
        entry.count = r.u64();
        entry.life = r.u64();
        _entries.emplace(row, entry);
    }
    _peakEntries = r.u32();
    _overflowFallbacks = r.u64();
}

} // namespace schemes
} // namespace graphene
