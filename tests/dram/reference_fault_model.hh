/**
 * @file
 * The dense FaultModel, kept as a differential reference.
 *
 * This is the fault oracle as it was before storage went sparse: one
 * 16-byte cell per row, allocated up front. dram::FaultModel must
 * agree with it on every observable: per-row disturbance, the flip
 * log, the peak and the checkpoint bytes (fault_model_diff_test.cc).
 */

#ifndef TESTS_DRAM_REFERENCE_FAULT_MODEL_HH
#define TESTS_DRAM_REFERENCE_FAULT_MODEL_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "ckpt/io.hh"
#include "common/random.hh"
#include "dram/fault_model.hh"

namespace graphene {
namespace dram {
namespace reference {

class DenseFaultModel
{
  public:
    DenseFaultModel(const FaultConfig &config, std::uint64_t num_rows)
        : _config(config), _numRows(num_rows), _cells(num_rows)
    {
        if (_config.remap) {
            _toPhysical.resize(num_rows);
            _toLogical.resize(num_rows);
            for (std::uint64_t i = 0; i < num_rows; ++i)
                _toPhysical[i] = Row{static_cast<Row::rep>(i)};
            Rng rng(_config.remapSeed);
            for (std::uint64_t i = num_rows - 1; i > 0; --i) {
                const std::uint64_t j = rng.nextRange(i + 1);
                std::swap(_toPhysical[i], _toPhysical[j]);
            }
            for (std::uint64_t i = 0; i < num_rows; ++i)
                _toLogical[_toPhysical[i].value()] =
                    Row{static_cast<Row::rep>(i)};
        }
    }

    void onActivate(Cycle cycle, Row aggressor)
    {
        const Row phys = physical(aggressor);
        for (unsigned d = 1; d <= _config.mu.size(); ++d) {
            const double amount = _config.mu[d - 1];
            const auto dist = static_cast<Row::difference_type>(d);
            if (phys.value() >= d)
                deposit(cycle, logical(phys - dist), amount);
            if (phys.value() + d < _numRows)
                deposit(cycle, logical(phys + dist), amount);
        }
    }

    void onRowRefresh(Row row) { _cells[row.value()] = CellState{}; }

    std::vector<Row> physicalNeighbors(Row aggressor,
                                       unsigned distance) const
    {
        std::vector<Row> neighbors;
        const Row phys = physical(aggressor);
        for (unsigned d = 1; d <= distance; ++d) {
            const auto dist = static_cast<Row::difference_type>(d);
            if (phys.value() >= d)
                neighbors.push_back(logical(phys - dist));
            if (phys.value() + d < _numRows)
                neighbors.push_back(logical(phys + dist));
        }
        return neighbors;
    }

    double disturbance(Row row) const
    {
        return row.value() < _numRows ? _cells[row.value()].disturbance
                                      : 0.0;
    }

    const std::vector<BitFlip> &flips() const { return _flips; }
    double peakDisturbance() const { return _peak; }

    void saveState(ckpt::Writer &w) const
    {
        std::uint64_t live = 0;
        for (const CellState &c : _cells)
            if (c.disturbance != 0.0 || c.flipped)
                ++live;
        w.u64(live);
        for (std::uint64_t i = 0; i < _numRows; ++i) {
            const CellState &c = _cells[i];
            if (c.disturbance == 0.0 && !c.flipped)
                continue;
            w.u32(static_cast<std::uint32_t>(i));
            w.f64(c.disturbance);
            w.boolean(c.flipped);
        }
        w.u64(_flips.size());
        for (const BitFlip &f : _flips) {
            w.u32(f.victimRow.value());
            w.u64(f.cycle.value());
            w.f64(f.disturbance);
        }
        w.f64(_peak);
    }

    void restoreState(ckpt::Reader &r)
    {
        std::fill(_cells.begin(), _cells.end(), CellState{});
        const std::uint64_t live = r.u64();
        for (std::uint64_t i = 0; i < live && !r.failed(); ++i) {
            const Row row{r.u32()};
            const double disturbance = r.f64();
            const bool flipped = r.boolean();
            _cells[row.value()] = CellState{disturbance, flipped};
        }
        _flips.clear();
        const std::uint64_t flip_count = r.u64();
        for (std::uint64_t i = 0; i < flip_count && !r.failed(); ++i) {
            BitFlip f{Row{r.u32()}, Cycle{r.u64()}, r.f64()};
            _flips.push_back(f);
        }
        _peak = r.f64();
    }

  private:
    struct CellState
    {
        double disturbance = 0.0;
        bool flipped = false;
    };

    Row physical(Row row) const
    {
        return _config.remap ? _toPhysical[row.value()] : row;
    }

    Row logical(Row row) const
    {
        return _config.remap ? _toLogical[row.value()] : row;
    }

    void deposit(Cycle cycle, Row victim, double amount)
    {
        CellState &cell = _cells[victim.value()];
        cell.disturbance += amount;
        if (cell.disturbance > _peak)
            _peak = cell.disturbance;
        if (!cell.flipped &&
            cell.disturbance >= _config.rowHammerThreshold) {
            cell.flipped = true;
            _flips.push_back({victim, cycle, cell.disturbance});
        }
    }

    FaultConfig _config;
    std::uint64_t _numRows;
    std::vector<CellState> _cells;
    std::vector<BitFlip> _flips;
    double _peak = 0.0;
    std::vector<Row> _toPhysical;
    std::vector<Row> _toLogical;
};

} // namespace reference
} // namespace dram
} // namespace graphene

#endif // TESTS_DRAM_REFERENCE_FAULT_MODEL_HH
