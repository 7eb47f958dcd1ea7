#include "schemes/cbt.hh"

#include "ckpt/io.hh"

#include <algorithm>
#include <iterator>
#include <queue>
#include <vector>

#include "check/contracts.hh"
#include "common/bits.hh"
#include "common/logging.hh"

namespace graphene {
namespace schemes {

std::uint64_t
CbtConfig::splitThreshold(unsigned level) const
{
    if (level >= levels)
        return finalThreshold();
    const std::uint64_t divisor = 1ULL << (levels - level);
    const std::uint64_t th = finalThreshold() / divisor;
    return th == 0 ? 1 : th;
}

Result<void>
CbtConfig::validate() const
{
    ErrorCollector errors(ErrorCode::Config, "cbt config");
    if (numCounters == 0)
        errors.add("need at least one counter");
    if (rowsPerBank == 0)
        errors.add("need rows");
    if (finalThreshold() == 0)
        errors.add("Row Hammer threshold too small");
    return errors.finish();
}

Cbt::Cbt(const CbtConfig &config) : _config(config)
{
    const Result<void> valid = _config.validate();
    GRAPHENE_CHECK(valid.ok(), "cbt: invalid config: %s",
                   valid.error().describe().c_str());
    resetTree();
}

std::string
Cbt::name() const
{
    return "CBT-" + std::to_string(_config.numCounters);
}

void
Cbt::resetTree()
{
    _ranges.clear();
    _ranges.emplace(Row{}, Node{Row{}, _config.rowsPerBank, 0, 0});
    if (!_config.warmStart)
        return;

    // Pre-split until the counter budget is spent, always dividing
    // the widest remaining range (the lowest-starting one among equals)
    // so coverage stays balanced, then give every counter an arbitrary
    // phase below the trigger. The splittable ranges wait in a heap in
    // that order, so the budget costs O(n log n), not a scan per split.
    const auto narrower = [](const Node &a, const Node &b) {
        return a.length != b.length ? a.length < b.length
                                    : a.start > b.start;
    };
    std::priority_queue<Node, std::vector<Node>, decltype(narrower)>
        splittable(narrower);
    const auto offer = [&](const Node &n) {
        if (n.level < _config.levels && n.length > 1)
            splittable.push(n);
    };
    offer(_ranges.begin()->second);
    while (_ranges.size() < _config.numCounters && !splittable.empty()) {
        const Row start = splittable.top().start;
        splittable.pop();
        split(_ranges.find(start));
        const auto left = _ranges.find(start);
        offer(left->second);
        offer(std::next(left)->second);
    }
    std::uint64_t state = _config.warmStartSeed;
    for (auto &kv : _ranges) {
        // splitmix64 step for a deterministic per-range phase.
        state += 0x9e3779b97f4a7c15ULL;
        std::uint64_t z = state ^ kv.first.value();
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        kv.second.count = (z ^ (z >> 31)) % _config.finalThreshold();
    }
}

std::map<Row, Cbt::Node>::iterator
Cbt::findNode(Row row)
{
    auto it = _ranges.upper_bound(row);
    GRAPHENE_CHECK(it != _ranges.begin(), "cbt: row %u not covered",
                   row.value());
    --it;
    GRAPHENE_CHECK(row >= it->second.start &&
                       row.value() <
                           it->second.start.value() + it->second.length,
                   "cbt: range bookkeeping broken for row %u",
                   row.value());
    return it;
}

void
Cbt::split(std::map<Row, Node>::iterator it)
{
    Node parent = it->second;
    const std::uint64_t half = parent.length / 2;
    if (half == 0)
        return;

    // Children inherit the parent's count: every row's activations
    // stay bounded above by its covering counter.
    Node left{parent.start, half, parent.level + 1, parent.count};
    Node right{Row{static_cast<Row::rep>(parent.start.value() + half)},
               parent.length - half, parent.level + 1, parent.count};
    GRAPHENE_ENSURES(left.length + right.length == parent.length,
                     "split children must exactly cover the parent "
                     "range");
    _ranges.erase(it);
    _ranges.emplace(left.start, left);
    _ranges.emplace(right.start, right);
    _mergeCacheValid = false;
}

void
Cbt::trigger(Cycle cycle, std::map<Row, Node>::iterator it,
             RefreshAction &action)
{
    Node &node = it->second;
    const Row start = node.start;
    std::uint64_t refreshed = 0;

    if (_config.assumeContiguous) {
        // Refresh every covered row plus the boundary neighbours
        // within the blast radius — valid only when logically
        // contiguous rows are physically contiguous.
        for (std::uint64_t i = 0; i < node.length; ++i)
            action.victimRows.push_back(
                Row{static_cast<Row::rep>(start.value() + i)});
        refreshed = node.length;
        for (unsigned d = 1; d <= _config.blastRadius; ++d) {
            if (start.value() >= d) {
                action.victimRows.push_back(
                    start - static_cast<Row::difference_type>(d));
                ++refreshed;
            }
            const std::uint64_t above =
                start.value() + node.length - 1 + d;
            if (above < _config.rowsPerBank) {
                action.victimRows.push_back(
                    Row{static_cast<Row::rep>(above)});
                ++refreshed;
            }
        }
    } else {
        // Internal remapping breaks the contiguity assumption: the
        // only safe option is a device-side NRR per covered row,
        // refreshing each row's true physical neighbours — 2n rows
        // per covered row instead of length + 2n total, the paper's
        // "N/2^l x 2, not N/2^l + 2" (Section II-C).
        for (std::uint64_t i = 0; i < node.length; ++i)
            action.nrrAggressors.push_back(
                Row{static_cast<Row::rep>(start.value() + i)});
        refreshed = node.length * 2ULL * _config.blastRadius;
    }

    node.count = 0;
    _lastBurstRows = refreshed;
    _mergeCacheValid = false;
    noteVictimRefresh(cycle, start,
                      static_cast<unsigned>(refreshed));
    GRAPHENE_ENSURES(refreshed > 0 && !action.empty(),
                     "a trigger must refresh at least one victim");
}

bool
Cbt::reclaimColderThan(std::uint64_t hot_count)
{
    // Fast refusal: pair scores only grow between structure changes,
    // so a cached minimum that already disqualified this hot count
    // still disqualifies it.
    if (_mergeCacheValid && hot_count <= _mergeScoreCache)
        return false;

    // Find the coldest aligned sibling pair strictly colder than the
    // counter that wants to deepen, and fold it into its parent.
    auto best = _ranges.end();
    std::uint64_t best_score = hot_count;
    std::uint64_t cheapest = ~0ULL;
    for (auto it = _ranges.begin(); it != _ranges.end(); ++it) {
        auto next = std::next(it);
        if (next == _ranges.end())
            break;
        const Node &l = it->second;
        const Node &r = next->second;
        if (l.level != r.level || l.length != r.length ||
            l.level == 0)
            continue;
        if ((l.start.value() / l.length) % 2 != 0)
            continue; // not the left child of a common parent
        const std::uint64_t score = std::max(l.count, r.count);
        // The merged parent must not itself demand a split, or the
        // tree thrashes: merge-split churn inflates counts (max of
        // children) until every counter races to the trigger.
        if (score >= _config.splitThreshold(l.level - 1))
            continue;
        cheapest = std::min(cheapest, score);
        if (score < best_score) {
            best_score = score;
            best = it;
        }
    }
    if (best == _ranges.end()) {
        _mergeScoreCache = cheapest;
        _mergeCacheValid = true;
        return false;
    }
    _mergeCacheValid = false;

    auto right = std::next(best);
    // The parent's count is the max of the children's: still an
    // upper bound on any covered row's activations.
    Node parent{best->second.start, best->second.length * 2,
                best->second.level - 1, best_score};
    _ranges.erase(right);
    _ranges.erase(best);
    _ranges.emplace(parent.start, parent);
    return true;
}

void
Cbt::onActivate(Cycle cycle, Row row, RefreshAction &action)
{
    (void)cycle;
    auto it = findNode(row);
    ++it->second.count;

    // Deepen the tree while this range is hot and the maximum depth
    // has not been reached, reclaiming cold counters when adaptive.
    while (it->second.level < _config.levels &&
           it->second.length > 1 &&
           it->second.count >=
               _config.splitThreshold(it->second.level)) {
        if (_ranges.size() >= _config.numCounters) {
            if (!_config.adaptive ||
                !reclaimColderThan(it->second.count)) {
                break;
            }
            it = findNode(row);
        }
        split(it);
        it = findNode(row);
    }

    // Counter budget: merges always pay for splits one-for-one.
    GRAPHENE_INVARIANT(_ranges.size() <= _config.numCounters,
                       "counter tree outgrew its hardware budget");

    if (it->second.count >= _config.finalThreshold())
        trigger(cycle, it, action);

    GRAPHENE_ENSURES(it->second.count < _config.finalThreshold(),
                     "a counter at the final threshold must have "
                     "triggered and cleared");
}

TableCost
Cbt::cost() const
{
    const unsigned count_bits = bitsFor(_config.finalThreshold());
    const unsigned addr_bits = bitsFor(_config.rowsPerBank - 1);

    // Each counter stores its count plus the subtree prefix locating
    // it in the tree; CBT is SRAM-based (Table IV).
    TableCost cost;
    cost.entries = _config.numCounters;
    cost.sramBits = static_cast<std::uint64_t>(_config.numCounters) *
                    (count_bits + addr_bits);
    return cost;
}


void
Cbt::saveState(ckpt::Writer &w) const
{
    ProtectionScheme::saveState(w);
    w.u64(_ranges.size());
    for (const auto &[start, node] : _ranges) {
        w.u32(start.value());
        w.u32(node.start.value());
        w.u64(node.length);
        w.u32(node.level);
        w.u64(node.count);
    }
    w.u64(_lastBurstRows);
    w.u64(_mergeScoreCache);
    w.boolean(_mergeCacheValid);
}

void
Cbt::restoreState(ckpt::Reader &r)
{
    ProtectionScheme::restoreState(r);
    _ranges.clear();
    const std::uint64_t range_count = r.u64();
    if (range_count > _config.numCounters) {
        r.fail();
        return;
    }
    for (std::uint64_t i = 0; i < range_count && !r.failed(); ++i) {
        const Row key{r.u32()};
        Node node;
        node.start = Row{r.u32()};
        node.length = r.u64();
        node.level = r.u32();
        node.count = r.u64();
        _ranges.emplace(key, node);
    }
    _lastBurstRows = r.u64();
    _mergeScoreCache = r.u64();
    _mergeCacheValid = r.boolean();
}

} // namespace schemes
} // namespace graphene
