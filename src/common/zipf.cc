#include "common/zipf.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <new>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace graphene {

/** One immutable inverse-CDF table; see the file comment. */
struct ZipfSampler::Table
{
    static constexpr std::align_val_t kLine{64};

    struct LineDelete
    {
        void operator()(double *p) const { ::operator delete[](p, kLine); }
    };

    /** Explicit CDF entries: min(n, 2^16). */
    std::uint64_t size = 0;
    /** The largest entry; u at or above it falls in the tail. */
    double last = 0.0;
    /** eytz[k], k in [1, size], in BFS order; eytz[0] is unused and
     *  the array starts on a cache line, so node k's 16 descendants
     *  four levels down fill two whole lines. */
    std::unique_ptr<double[], LineDelete> eytz;
    /** rank[k] is eytz[k]'s sorted index; rank[0] = size (none >= u). */
    std::vector<std::uint32_t> rank;
};

namespace {

/** The normalised sorted CDF of the explicit head. */
std::vector<double>
sortedCdf(std::uint64_t n, double theta)
{
    // Cap the explicit CDF at a manageable size; the tail beyond the
    // cap carries its analytically integrated probability mass and is
    // sampled uniformly (the head dominates any skewed distribution).
    const std::uint64_t cap = std::min<std::uint64_t>(n, 1 << 16);
    std::vector<double> cdf(cap);
    double sum = 0.0;
    for (std::uint64_t i = 0; i < cap; ++i) {
        sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
        cdf[i] = sum;
    }

    double tail = 0.0;
    if (n > cap) {
        const double a = static_cast<double>(cap);
        const double b = static_cast<double>(n);
        if (std::fabs(theta - 1.0) < 1e-9)
            tail = std::log(b / a);
        else
            tail = (std::pow(b, 1.0 - theta) -
                    std::pow(a, 1.0 - theta)) /
                   (1.0 - theta);
    }

    const double total = sum + tail;
    for (auto &v : cdf)
        v /= total;
    return cdf;
}

} // namespace

std::shared_ptr<const ZipfSampler::Table>
ZipfSampler::shared(std::uint64_t n, double theta)
{
    using Key = std::pair<std::uint64_t, std::uint64_t>;
    static std::mutex mutex;
    static std::map<Key, std::weak_ptr<const Table>> registry;

    const Key key{n, std::bit_cast<std::uint64_t>(theta)};
    const std::lock_guard<std::mutex> lock(mutex);
    if (const auto it = registry.find(key); it != registry.end())
        if (auto table = it->second.lock())
            return table;

    const std::vector<double> cdf = sortedCdf(n, theta);
    auto table = std::make_shared<Table>();
    table->size = cdf.size();
    table->last = cdf.back();
    table->eytz.reset(static_cast<double *>(
        ::operator new[]((cdf.size() + 1) * sizeof(double), Table::kLine)));
    table->eytz[0] = 0.0;
    table->rank.resize(cdf.size() + 1);
    table->rank[0] = static_cast<std::uint32_t>(cdf.size());
    // An in-order walk of the implicit tree visits the slots in
    // sorted order.
    std::uint32_t next = 0;
    const auto place = [&](const auto &self, std::uint64_t k) -> void {
        if (k > cdf.size())
            return;
        self(self, 2 * k);
        table->eytz[k] = cdf[next];
        table->rank[k] = next++;
        self(self, 2 * k + 1);
    };
    place(place, 1);

    std::erase_if(registry,
                  [](const auto &kv) { return kv.second.expired(); });
    registry.emplace(key, table);
    return table;
}

ZipfSampler::ZipfSampler(std::uint64_t n, double theta) : _n(n)
{
    GRAPHENE_CHECK(n > 0, "zipf: empty population");
    _table = shared(n, theta);
}

std::uint64_t
ZipfSampler::rankOf(double u) const
{
    const Table &t = *_table;
    const double *eytz = t.eytz.get();
    const std::uint64_t size = t.size;
    std::uint64_t k = 1;
    while (k <= size) {
        // Prefetch by index, clamped, so no pointer leaves the array.
        __builtin_prefetch(eytz + std::min(16 * k, size));
        __builtin_prefetch(eytz + std::min(16 * k + 8, size));
        k = 2 * k + static_cast<std::uint64_t>(eytz[k] < u);
    }
    // k's low bits record the turns taken, 1 = right. Dropping the
    // trailing right turns and the left turn before them leaves the
    // last node whose entry was >= u, or 0 if every turn went right.
    k >>= std::countr_one(k) + 1;
    return t.rank[k];
}

std::uint64_t
ZipfSampler::sample(Rng &rng) const
{
    const double u = rng.nextDouble();
    if (u >= _table->last) {
        // Tail: uniform over the ranks beyond the explicit CDF.
        const std::uint64_t cap = _table->size;
        if (_n <= cap)
            return cap - 1;
        return cap + rng.nextRange(_n - cap);
    }
    return rankOf(u);
}

} // namespace graphene
