/**
 * @file
 * DRAM organization and physical-address decomposition.
 */

#ifndef DRAM_ADDRESS_HH
#define DRAM_ADDRESS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/divisor.hh"
#include "common/types.hh"

namespace graphene {
namespace dram {

/**
 * The memory-system organization used throughout the reproduction.
 * Defaults match the paper's Table III: 4 channels x 1 rank, 16 banks
 * per rank, 128 GB total => 64K rows of 8 KB per bank.
 */
struct Geometry
{
    unsigned channels = 4;
    unsigned ranksPerChannel = 1;
    unsigned banksPerRank = 16;
    std::uint64_t rowsPerBank = 65536;
    std::uint64_t bytesPerRow = 8192;

    unsigned totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank;
    }

    /**
     * Total capacity in bytes. Multiplies with overflow checking:
     * a geometry whose capacity does not fit in 64 bits is a
     * configuration error, reported instead of silently wrapped.
     */
    std::uint64_t capacityBytes() const;
};

/**
 * How the line-interleaving fields are ordered inside a physical
 * address. All policies keep the column (line offset within a row) in
 * the low bits and are exact inverses of each other's decode/encode;
 * they differ in which resource consecutive lines stripe across.
 */
enum class MappingPolicy
{
    /** row : rank : bank : channel : column — consecutive lines
     *  stripe channels first, then banks (the throughput-oriented
     *  default; the layout of the original reproduction). */
    ChannelInterleaved,

    /** row : channel : rank : bank : column — consecutive lines
     *  stripe banks first, then channels. */
    BankInterleaved,

    /** channel : rank : bank : row : column — a whole bank's rows are
     *  contiguous (page-contiguous baseline; minimal parallelism). */
    RowContiguous,
};

/** Short name ("channel-interleaved", ...) for logs and sweeps. */
const char *mappingPolicyName(MappingPolicy policy);

/** All policies, for sweeps and property tests. */
std::vector<MappingPolicy> allMappingPolicies();

/** The (channel, rank, bank, row, column-offset) tuple of an access. */
struct DecodedAddr
{
    unsigned channel;
    unsigned rank;
    unsigned bank;
    Row row;
    std::uint64_t column;

    /** Flat bank id unique across the whole system. */
    BankId flatBank(const Geometry &g) const;

    std::string toString() const;
};

/**
 * A Geometry's per-field divisors, strength-reduced once (see
 * Divisor). AddressMapper::decode() and the synthetic generators'
 * placement divide by these on every request.
 */
struct GeometryDivisors
{
    GeometryDivisors(const Geometry &g, std::uint64_t line_bytes)
        : line(line_bytes), linesPerRow(g.bytesPerRow / line_bytes),
          channels(g.channels), ranksPerChannel(g.ranksPerChannel),
          banksPerRank(g.banksPerRank), rowsPerBank(g.rowsPerBank)
    {
    }

    Divisor line; ///< Bytes per cache line.
    Divisor linesPerRow;
    Divisor channels;
    Divisor ranksPerChannel;
    Divisor banksPerRank;
    Divisor rowsPerBank;
};

/**
 * Maps physical byte addresses to DRAM coordinates under a
 * MappingPolicy (default: channel-interleaved, the usual choice for
 * throughput-oriented controllers and the one that makes per-bank ACT
 * streams realistic).
 */
class AddressMapper
{
  public:
    explicit AddressMapper(
        const Geometry &geometry,
        MappingPolicy policy = MappingPolicy::ChannelInterleaved);

    DecodedAddr decode(Addr addr) const;

    /** Inverse of decode(); used by trace generators. */
    Addr encode(const DecodedAddr &d) const;

    const Geometry &geometry() const { return _geometry; }
    MappingPolicy policy() const { return _policy; }
    const GeometryDivisors &divisors() const { return _div; }

  private:
    Geometry _geometry;
    MappingPolicy _policy;
    std::uint64_t _lineBytes = 64;
    GeometryDivisors _div;
};

} // namespace dram
} // namespace graphene

#endif // DRAM_ADDRESS_HH
