#include "dram/fault_model.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "ckpt/io.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace graphene {
namespace dram {

FaultModel::FaultModel(const FaultConfig &config, std::uint64_t num_rows)
    : _config(config), _numRows(num_rows)
{
    static_assert(sizeof(Cell) == 16,
                  "sparse slots and dense cells must stay the same size");
    GRAPHENE_CHECK(!_config.mu.empty(),
                   "fault model: empty coefficient vector");
    GRAPHENE_CHECK(_config.rowHammerThreshold > 0.0,
                   "fault model: non-positive Row Hammer threshold");

    resetCells();

    if (_config.remap) {
        // Fisher-Yates shuffle for the logical -> physical map.
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

void
FaultModel::onActivate(Cycle cycle, Row aggressor)
{
    const Row phys =
        _config.remap ? _toPhysical[aggressor.value()] : aggressor;
    for (unsigned d = 1; d <= _config.mu.size(); ++d) {
        const double amount = _config.mu[d - 1];
        const auto dist = static_cast<Row::difference_type>(d);
        if (phys.value() >= d) {
            const Row victim_phys = phys - dist;
            deposit(cycle,
                    _config.remap ? _toLogical[victim_phys.value()]
                                  : victim_phys,
                    amount);
        }
        if (phys.value() + d < _numRows) {
            const Row victim_phys = phys + dist;
            deposit(cycle,
                    _config.remap ? _toLogical[victim_phys.value()]
                                  : victim_phys,
                    amount);
        }
    }
}

std::vector<Row>
FaultModel::physicalNeighbors(Row aggressor, unsigned distance) const
{
    std::vector<Row> neighbors;
    neighbors.reserve(2 * distance);
    const Row phys =
        _config.remap ? _toPhysical[aggressor.value()] : aggressor;
    for (unsigned d = 1; d <= distance; ++d) {
        const auto dist = static_cast<Row::difference_type>(d);
        if (phys.value() >= d) {
            const Row victim_phys = phys - dist;
            neighbors.push_back(_config.remap
                                    ? _toLogical[victim_phys.value()]
                                    : victim_phys);
        }
        if (phys.value() + d < _numRows) {
            const Row victim_phys = phys + dist;
            neighbors.push_back(_config.remap
                                    ? _toLogical[victim_phys.value()]
                                    : victim_phys);
        }
    }
    return neighbors;
}

void
FaultModel::resetCells()
{
    _dense = _numRows / 4 < kMinSlots;
    // Move-assign so a restore releases a dense array it replaces.
    _cells = std::vector<Cell>(_dense ? _numRows : kMinSlots);
    _live = 0;
}

std::size_t
FaultModel::homeSlot(Row row) const
{
    // Aligned groups of eight rows keep eight consecutive home slots
    // (two cache lines), so an aggressor's two neighbours and a REF
    // stripe share lines; Fibonacci hashing scatters the groups.
    const int group_bits = std::countr_zero(_cells.size()) - 3;
    const std::uint64_t group =
        (std::uint64_t{row.value() >> 3} * 0x9e3779b97f4a7c15ULL) >>
        (64 - group_bits);
    return static_cast<std::size_t>(group << 3 | (row.value() & 7));
}

std::size_t
FaultModel::slotOf(Row row) const
{
    const std::uint32_t key = row.value() + 1;
    const std::size_t mask = _cells.size() - 1;
    std::size_t i = homeSlot(row);
    while (_cells[i].key != key && _cells[i].key != 0)
        i = (i + 1) & mask;
    return i;
}

FaultModel::Cell &
FaultModel::cellFor(Row row)
{
    if (_dense)
        return _cells[row.value()];
    Cell *cell = &_cells[slotOf(row)];
    if (cell->key == 0) {
        if (2 * (_live + 1) > _cells.size()) {
            grow();
            if (_dense)
                return _cells[row.value()];
            cell = &_cells[slotOf(row)];
        }
        cell->key = row.value() + 1;
        ++_live;
    }
    return *cell;
}

void
FaultModel::grow()
{
    const std::size_t slots = 2 * _cells.size();
    // Past a quarter of the dense footprint: switch for good.
    _dense = slots > _numRows / 4;
    const std::vector<Cell> old =
        std::exchange(_cells, std::vector<Cell>(_dense ? _numRows : slots));
    for (const Cell &c : old) {
        if (c.key == 0)
            continue;
        const Row row{c.key - 1};
        if (_dense)
            _cells[row.value()] = Cell{c.disturbance, 0, c.flipped};
        else
            _cells[slotOf(row)] = c;
    }
}

void
FaultModel::deposit(Cycle cycle, Row victim, double amount)
{
    Cell &cell = cellFor(victim);
    cell.disturbance += amount;
    if (cell.disturbance > _peak)
        _peak = cell.disturbance;
    if (!cell.flipped &&
        cell.disturbance >= _config.rowHammerThreshold) {
        cell.flipped = true;
        _flips.push_back({victim, cycle, cell.disturbance});
    }
}

void
FaultModel::onRowRefresh(Row row)
{
    GRAPHENE_CHECK(row.value() < _numRows,
                   "refresh of out-of-range row %u", row.value());
    if (_dense) {
        _cells[row.value()] = Cell{};
        return;
    }
    std::size_t hole = slotOf(row);
    if (_cells[hole].key == 0)
        return; // undisturbed since its last refresh
    const std::size_t mask = _cells.size() - 1;
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless their home lies cyclically in (hole, j].
    for (std::size_t j = (hole + 1) & mask; _cells[j].key != 0;
         j = (j + 1) & mask) {
        const std::size_t home = homeSlot(Row{_cells[j].key - 1});
        const bool stays = hole <= j ? hole < home && home <= j
                                     : hole < home || home <= j;
        if (!stays) {
            _cells[hole] = _cells[j];
            hole = j;
        }
    }
    _cells[hole] = Cell{};
    --_live;
}

double
FaultModel::disturbance(Row row) const
{
    if (row.value() >= _numRows)
        return 0.0;
    // An absent row's probe ends on an empty slot, which holds 0.0.
    return _cells[_dense ? row.value() : slotOf(row)].disturbance;
}

void
FaultModel::saveState(ckpt::Writer &w) const
{
    // Only non-default cells, in row order, whichever the storage
    // mode: the bytes are a function of the charge state alone.
    const auto charged = [](const Cell &c) {
        return c.disturbance != 0.0 || c.flipped;
    };
    const auto write = [&w](Row row, const Cell &c) {
        w.u32(row.value());
        w.f64(c.disturbance);
        w.boolean(c.flipped);
    };
    if (_dense) {
        w.u64(static_cast<std::uint64_t>(
            std::count_if(_cells.begin(), _cells.end(), charged)));
        for (std::size_t i = 0; i < _cells.size(); ++i)
            if (charged(_cells[i]))
                write(Row{static_cast<Row::rep>(i)}, _cells[i]);
    } else {
        std::vector<const Cell *> live;
        live.reserve(_live);
        for (const Cell &c : _cells)
            if (c.key != 0 && charged(c))
                live.push_back(&c);
        std::sort(live.begin(), live.end(),
                  [](const Cell *a, const Cell *b) { return a->key < b->key; });
        w.u64(live.size());
        for (const Cell *c : live)
            write(Row{c->key - 1}, *c);
    }
    w.u64(_flips.size());
    for (const BitFlip &f : _flips) {
        w.u32(f.victimRow.value());
        w.u64(f.cycle.value());
        w.f64(f.disturbance);
    }
    w.f64(_peak);
}

void
FaultModel::restoreState(ckpt::Reader &r)
{
    resetCells();
    const std::uint64_t live = r.u64();
    if (live > _numRows) {
        r.fail();
        return;
    }
    for (std::uint64_t i = 0; i < live && !r.failed(); ++i) {
        const Row row{r.u32()};
        const double disturbance = r.f64();
        const bool flipped = r.boolean();
        if (row.value() >= _numRows) {
            r.fail();
            return;
        }
        Cell &cell = cellFor(row);
        cell.disturbance = disturbance;
        cell.flipped = flipped;
    }
    _flips.clear();
    const std::uint64_t flip_count = r.u64();
    if (flip_count > _numRows) {
        r.fail();
        return;
    }
    for (std::uint64_t i = 0; i < flip_count && !r.failed(); ++i) {
        BitFlip f{Row{r.u32()}, Cycle{r.u64()}, r.f64()};
        _flips.push_back(f);
    }
    _peak = r.f64();
}

} // namespace dram
} // namespace graphene
