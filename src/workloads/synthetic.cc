#include "workloads/synthetic.hh"

#include <cmath>

#include "common/logging.hh"

namespace graphene {
namespace workloads {

namespace {

/** @p params, once its working set is known to fit a bank; run first
 *  in the member-init list, before the sampler or the divisor is
 *  built from it. */
const SyntheticParams &
checkedParams(const SyntheticParams &params,
              const dram::AddressMapper &mapper)
{
    GRAPHENE_CHECK(params.workingSetRows > 0,
                   "synthetic workload: empty working set");
    GRAPHENE_CHECK(params.workingSetRows <= mapper.geometry().rowsPerBank,
                   "synthetic workload: working set exceeds bank rows");
    return params;
}

} // namespace

SyntheticGenerator::SyntheticGenerator(const SyntheticParams &params,
                                       const dram::AddressMapper &mapper,
                                       unsigned core_id,
                                       std::uint64_t seed)
    : _params(checkedParams(params, mapper)), _mapper(mapper),
      _coreId(core_id),
      _rng(seed ^ (0x5851f42d4c957f2dULL * (core_id + 1))),
      _zipf(params.workingSetRows,
            params.zipfTheta > 0.0 ? params.zipfTheta : 1e-9),
      _workingSetRows(params.workingSetRows)
{
    const auto &g = mapper.geometry();
    // Spread the cores' working sets across the row space so that
    // multiprogrammed mixes do not alias (OS page placement).
    const std::uint64_t stride = g.rowsPerBank / 16;
    _baseRow =
        Row{static_cast<Row::rep>((core_id * stride) % g.rowsPerBank)};
}

Addr
SyntheticGenerator::lineFor(std::uint64_t row_rank,
                            std::uint64_t line_in_row)
{
    const dram::GeometryDivisors &div = _mapper.divisors();
    dram::DecodedAddr d{};
    const Row row{static_cast<Row::rep>(
        div.rowsPerBank.rem(_baseRow.value() + row_rank))};
    d.row = row;
    d.column = div.linesPerRow.rem(line_in_row) * 64;
    // Hash the row into channel/bank so per-bank streams decorrelate.
    const std::uint64_t h = (row.value() * 0x9e3779b97f4a7c15ULL) ^
                            (_coreId * 0xbf58476d1ce4e5b9ULL);
    d.channel = static_cast<unsigned>(div.channels.rem(h));
    d.bank = static_cast<unsigned>(div.banksPerRank.rem(h >> 8));
    d.rank = static_cast<unsigned>(div.ranksPerChannel.rem(h >> 16));
    return _mapper.encode(d);
}

CoreAccess
SyntheticGenerator::next()
{
    CoreAccess access;

    const std::uint64_t lines_per_row =
        _mapper.divisors().linesPerRow.value();
    if (_rng.bernoulli(_params.sequentialFraction)) {
        // Continue the sequential run; cross into the next row when
        // the current one is exhausted.
        ++_seqLine;
        if (_seqLine >= lines_per_row) {
            _seqLine = 0;
            _seqRowRank = _workingSetRows.rem(_seqRowRank + 1);
        }
    } else {
        _seqRowRank = _workingSetRows.rem(_zipf.sample(_rng));
        _seqLine = _rng.nextRange(lines_per_row);
    }

    access.addr = lineFor(_seqRowRank, _seqLine);
    access.isWrite = _rng.bernoulli(_params.writeFraction);
    access.gap = Cycle{static_cast<std::uint64_t>(
        _rng.exponential(_params.meanGapCycles))};
    return access;
}

} // namespace workloads
} // namespace graphene
