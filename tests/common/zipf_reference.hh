/**
 * @file
 * The per-sampler sorted-CDF ZipfSampler, kept as a differential
 * reference.
 *
 * This is the sampler as it was before the CDF moved into one shared
 * table per (n, theta) searched in Eytzinger order: every instance
 * builds its own sorted CDF and searches it with std::lower_bound.
 * graphene::ZipfSampler must return the same rank for every u and
 * draw the same sequence from every Rng (zipf_diff_test.cc).
 */

#ifndef TESTS_COMMON_ZIPF_REFERENCE_HH
#define TESTS_COMMON_ZIPF_REFERENCE_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/random.hh"

namespace graphene {
namespace reference {

/**
 * Samples integers in [0, n) with probability proportional to
 * 1 / (rank + 1)^theta, using a precomputed inverse-CDF table.
 */
class ReferenceZipfSampler
{
  public:
    ReferenceZipfSampler(std::uint64_t n, double theta) : _n(n)
    {
        GRAPHENE_CHECK(n > 0, "zipf: empty population");
        // Cap the explicit CDF at a manageable size; the tail beyond
        // the cap carries its analytically integrated probability
        // mass and is sampled uniformly (the head dominates any
        // skewed distribution).
        const std::uint64_t cap = std::min<std::uint64_t>(n, 1 << 16);
        _cdf.resize(cap);
        double sum = 0.0;
        for (std::uint64_t i = 0; i < cap; ++i) {
            sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
            _cdf[i] = sum;
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
        for (auto &v : _cdf)
            v /= total;
    }

    /** Draw one sample (the item's frequency rank). */
    std::uint64_t
    sample(Rng &rng) const
    {
        const double u = rng.nextDouble();
        if (u >= _cdf.back()) {
            // Tail: uniform over the ranks beyond the explicit CDF.
            const std::uint64_t cap = _cdf.size();
            if (_n <= cap)
                return cap - 1;
            return cap + rng.nextRange(_n - cap);
        }
        return rankOf(u);
    }

    /** Index of the first CDF entry >= @p u; the CDF size if none. */
    std::uint64_t
    rankOf(double u) const
    {
        const auto it = std::lower_bound(_cdf.begin(), _cdf.end(), u);
        return static_cast<std::uint64_t>(it - _cdf.begin());
    }

    std::uint64_t population() const { return _n; }

    /** The normalised sorted CDF the search runs over. */
    const std::vector<double> &cdf() const { return _cdf; }

  private:
    std::uint64_t _n;
    std::vector<double> _cdf;
};

} // namespace reference
} // namespace graphene

#endif // TESTS_COMMON_ZIPF_REFERENCE_HH
