/**
 * @file
 * Zipf-distributed integer sampling, used by the hot-row workload
 * generators to reproduce the skewed row-activation frequency
 * distributions of memory-intensive SPEC-like applications.
 *
 * Sharing. A sampler draws through an immutable inverse-CDF table
 * that depends only on (n, theta). Samplers with the same n and the
 * same theta bits share one table from a process-wide registry, so
 * the 16 cores of a rate-mode cell (one profile, 16 copies) hold one
 * CDF between them, and concurrent cells with a profile in common
 * share it too. The registry is guarded by a mutex; the tables are
 * read-only once built, so drawing needs no lock.
 *
 * Lifetime. The registry holds weak references: a table lives while
 * some sampler uses it and is freed with the last one, so memory is
 * bounded by the live samplers, and a key no sampler holds costs one
 * map entry until the next build sweeps it.
 *
 * Layout. The table stores the normalised CDF of the explicit head
 * (min(n, 2^16) ranks) in 1-based Eytzinger (BFS) order: node k's
 * children are 2k and 2k+1, so a search descends by index arithmetic
 * alone and the lines four levels down can be prefetched while the
 * current comparison resolves (Khuong & Morin, "Array Layouts for
 * Comparison-Based Searching", 2017). The search returns the same
 * first entry >= u as std::lower_bound over the sorted CDF, and a
 * u32 array maps the Eytzinger slot back to that sorted index, so
 * every draw equals the sorted-CDF sampler's.
 */

#ifndef COMMON_ZIPF_HH
#define COMMON_ZIPF_HH

#include <cstdint>
#include <memory>

#include "common/random.hh"

namespace graphene {

/**
 * Samples integers in [0, n) with probability proportional to
 * 1 / (rank + 1)^theta, using a shared precomputed inverse-CDF table.
 */
class ZipfSampler
{
  public:
    /**
     * @param n population size.
     * @param theta skew exponent (0 = uniform, ~0.99 = classic YCSB).
     */
    ZipfSampler(std::uint64_t n, double theta);

    /** Draw one sample (the item's frequency rank). */
    std::uint64_t sample(Rng &rng) const;

    /**
     * The inverse-CDF search sample() runs below the tail: the index
     * of the first explicit CDF entry >= @p u, or the number of
     * entries if none is.
     */
    std::uint64_t rankOf(double u) const;

    std::uint64_t population() const { return _n; }

    /** Whether both samplers draw through one shared table. */
    bool
    sharesTableWith(const ZipfSampler &other) const
    {
        return _table == other._table;
    }

  private:
    struct Table;

    /** The registry's table for (n, theta), built on first use. */
    static std::shared_ptr<const Table> shared(std::uint64_t n,
                                               double theta);

    std::uint64_t _n;
    std::shared_ptr<const Table> _table;
};

} // namespace graphene

#endif // COMMON_ZIPF_HH
