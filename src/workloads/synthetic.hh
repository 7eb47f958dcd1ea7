/**
 * @file
 * Synthetic per-core trace generation.
 *
 * The paper drives its simulator with SimPoint'd SPEC CPU2006 /
 * PARSEC / GAP / MICA traces, which are not redistributable. What the
 * protection schemes actually observe is the per-bank row-activation
 * stream, fully characterised by (a) request intensity, (b) row-buffer
 * locality, and (c) row-reuse skew. SyntheticGenerator reproduces
 * those three axes with a small set of knobs, and profiles.hh
 * instantiates one parameter set per named application.
 */

#ifndef WORKLOADS_SYNTHETIC_HH
#define WORKLOADS_SYNTHETIC_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/divisor.hh"
#include "common/random.hh"
#include "common/types.hh"
#include "common/zipf.hh"
#include "dram/address.hh"

namespace graphene {
namespace workloads {

/** One generated access: a byte address plus the core's think time. */
struct CoreAccess
{
    Addr addr{};
    bool isWrite = false;
    /** Core compute cycles between the previous completion and this
     *  request's issue. */
    Cycle gap{};
};

/** Knobs defining a synthetic application's memory behaviour. */
struct SyntheticParams
{
    std::string name = "synthetic";

    /** Probability the next access continues the current sequential
     *  run (row-buffer locality axis). */
    double sequentialFraction = 0.5;

    /** Zipf skew over the working set's rows; 0 = uniform. */
    double zipfTheta = 0.0;

    /** Rows in the core's working set. */
    std::uint64_t workingSetRows = 4096;

    /** Mean think time between requests, in cycles (intensity). */
    double meanGapCycles = 200.0;

    /** Fraction of writes. */
    double writeFraction = 0.25;
};

/** Parameterised synthetic memory-trace generator for one core. */
class SyntheticGenerator
{
  public:
    /**
     * @param params behaviour knobs.
     * @param mapper address mapper of the simulated system.
     * @param core_id this core's index (places its working set).
     * @param seed RNG seed.
     */
    SyntheticGenerator(const SyntheticParams &params,
                       const dram::AddressMapper &mapper,
                       unsigned core_id, std::uint64_t seed);

    /** Generate the next access. */
    CoreAccess next();

    const std::string &name() const { return _params.name; }
    const SyntheticParams &params() const { return _params; }

  private:
    Addr lineFor(std::uint64_t row_rank, std::uint64_t line_in_row);

    SyntheticParams _params;
    const dram::AddressMapper &_mapper;
    unsigned _coreId;
    Rng _rng;
    ZipfSampler _zipf;
    Row _baseRow;

    std::uint64_t _seqRowRank = 0;
    std::uint64_t _seqLine = 0;
    /// The working-set modulus, strength-reduced once; the geometry's
    /// come from the mapper.
    Divisor _workingSetRows;
};

} // namespace workloads
} // namespace graphene

#endif // WORKLOADS_SYNTHETIC_HH
