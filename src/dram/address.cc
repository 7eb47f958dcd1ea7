#include "dram/address.hh"

#include <limits>
#include <sstream>

#include "common/logging.hh"

namespace graphene {
namespace dram {

namespace {

/** a * b, or a fatal error if the product does not fit in 64 bits. */
std::uint64_t
checkedMul(std::uint64_t a, std::uint64_t b, const char *what)
{
    GRAPHENE_CHECK(a == 0 ||
                       b <= std::numeric_limits<std::uint64_t>::max() / a,
                   "geometry: %s overflows 64 bits", what);
    return a * b;
}

} // namespace

std::uint64_t
Geometry::capacityBytes() const
{
    const std::uint64_t banks = totalBanks();
    return checkedMul(checkedMul(banks, rowsPerBank, "banks x rows"),
                      bytesPerRow, "capacity");
}

const char *
mappingPolicyName(MappingPolicy policy)
{
    switch (policy) {
      case MappingPolicy::ChannelInterleaved:
        return "channel-interleaved";
      case MappingPolicy::BankInterleaved:
        return "bank-interleaved";
      case MappingPolicy::RowContiguous:
        return "row-contiguous";
    }
    return "?";
}

std::vector<MappingPolicy>
allMappingPolicies()
{
    return {MappingPolicy::ChannelInterleaved,
            MappingPolicy::BankInterleaved,
            MappingPolicy::RowContiguous};
}

BankId
DecodedAddr::flatBank(const Geometry &g) const
{
    return BankId{(channel * g.ranksPerChannel + rank) * g.banksPerRank +
                  bank};
}

std::string
DecodedAddr::toString() const
{
    std::ostringstream ss;
    ss << "ch" << channel << ".rk" << rank << ".ba" << bank << ".row"
       << row << ".col" << column;
    return ss.str();
}

AddressMapper::AddressMapper(const Geometry &geometry,
                             MappingPolicy policy)
    : _geometry(geometry), _policy(policy), _div(geometry, _lineBytes)
{
    GRAPHENE_CHECK(geometry.channels > 0 &&
                       geometry.ranksPerChannel > 0 &&
                       geometry.banksPerRank > 0 &&
                       geometry.rowsPerBank > 0,
                   "address mapper: degenerate geometry");
    if (geometry.bytesPerRow < _lineBytes ||
        geometry.bytesPerRow % _lineBytes != 0) {
        GRAPHENE_CHECK(false,
                       "address mapper: bytesPerRow must be a multiple "
                       "of the %llu-byte line",
                       static_cast<unsigned long long>(_lineBytes));
    }
    // Row is a 32-bit id and all-ones is the invalid() sentinel; a
    // geometry with more rows per bank than that would silently
    // truncate in decode (or mint a "valid" sentinel row).
    GRAPHENE_CHECK(geometry.rowsPerBank <=
                       static_cast<std::uint64_t>(Row::invalid().value()),
                   "address mapper: rowsPerBank exceeds the Row id "
                   "space");
    // Triggers the overflow audit for pathological geometries.
    (void)geometry.capacityBytes();
}

DecodedAddr
AddressMapper::decode(Addr addr) const
{
    std::uint64_t line = _div.line.quot(addr.value());
    // Peel the lowest remaining field off the line index.
    const auto take = [&line](const Divisor &field) {
        const std::uint64_t v = field.rem(line);
        line = field.quot(line);
        return v;
    };

    DecodedAddr d{};
    std::uint64_t lineInRow = 0;
    switch (_policy) {
      case MappingPolicy::ChannelInterleaved:
        d.channel = static_cast<unsigned>(take(_div.channels));
        d.bank = static_cast<unsigned>(take(_div.banksPerRank));
        d.rank = static_cast<unsigned>(take(_div.ranksPerChannel));
        lineInRow = take(_div.linesPerRow);
        d.row = Row{static_cast<Row::rep>(_div.rowsPerBank.rem(line))};
        break;
      case MappingPolicy::BankInterleaved:
        d.bank = static_cast<unsigned>(take(_div.banksPerRank));
        d.rank = static_cast<unsigned>(take(_div.ranksPerChannel));
        d.channel = static_cast<unsigned>(take(_div.channels));
        lineInRow = take(_div.linesPerRow);
        d.row = Row{static_cast<Row::rep>(_div.rowsPerBank.rem(line))};
        break;
      case MappingPolicy::RowContiguous:
        lineInRow = take(_div.linesPerRow);
        d.row = Row{static_cast<Row::rep>(take(_div.rowsPerBank))};
        d.bank = static_cast<unsigned>(take(_div.banksPerRank));
        d.rank = static_cast<unsigned>(take(_div.ranksPerChannel));
        d.channel = static_cast<unsigned>(_div.channels.rem(line));
        break;
    }
    d.column = lineInRow * _lineBytes + _div.line.rem(addr.value());
    return d;
}

Addr
AddressMapper::encode(const DecodedAddr &d) const
{
    const Geometry &g = _geometry;
    const std::uint64_t linesPerRow = g.bytesPerRow / _lineBytes;
    const std::uint64_t lineInRow = d.column / _lineBytes;
    std::uint64_t line = 0;

    switch (_policy) {
      case MappingPolicy::ChannelInterleaved:
        line = d.row.value();
        line = line * linesPerRow + lineInRow;
        line = line * g.ranksPerChannel + d.rank;
        line = line * g.banksPerRank + d.bank;
        line = line * g.channels + d.channel;
        break;
      case MappingPolicy::BankInterleaved:
        line = d.row.value();
        line = line * linesPerRow + lineInRow;
        line = line * g.channels + d.channel;
        line = line * g.ranksPerChannel + d.rank;
        line = line * g.banksPerRank + d.bank;
        break;
      case MappingPolicy::RowContiguous:
        line = d.channel;
        line = line * g.ranksPerChannel + d.rank;
        line = line * g.banksPerRank + d.bank;
        line = line * g.rowsPerBank + d.row.value();
        line = line * linesPerRow + lineInRow;
        break;
    }
    return Addr{line * _lineBytes + d.column % _lineBytes};
}

} // namespace dram
} // namespace graphene
