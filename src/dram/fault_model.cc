#include "dram/fault_model.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>
#include <utility>

#include "ckpt/io.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace graphene {
namespace dram {

FaultModel::FaultModel(const FaultConfig &config, std::uint64_t num_rows)
    : _config(config), _numRows(num_rows)
{
    static_assert(sizeof(CountCell) == 8 && sizeof(ChargeCell) == 16,
                  "sparse slots and dense cells must stay the same size");
    GRAPHENE_CHECK(!_config.mu.empty(),
                   "fault model: empty coefficient vector");
    GRAPHENE_CHECK(_config.rowHammerThreshold > 0.0,
                   "fault model: non-positive Row Hammer threshold");

    if (std::any_of(_config.mu.begin(), _config.mu.end(),
                    [](double m) { return m != 1.0; }))
        _cells.emplace<std::vector<ChargeCell>>();
    resetCells();
    // The bound "no count exceeds the bank's ACT count" needs unit
    // weights, and the stripe and refresh tags need rows below bit 30.
    _logging = !_dense && _numRows <= kStripeTag &&
               std::holds_alternative<std::vector<CountCell>>(_cells);

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
    if (_logging) {
        // No count can reach the threshold before the bank's ACT
        // count does.
        if (static_cast<double>(_logActs + 1) < _config.rowHammerThreshold &&
            append(aggressor.value())) {
            ++_logActs;
            return;
        }
        replay();
    }
    std::visit([&](auto &cells) { activate(cells, cycle, aggressor); },
               _cells);
}

template <class Cell>
void
FaultModel::activate(std::vector<Cell> &cells, Cycle cycle, Row aggressor)
{
    const Row phys =
        _config.remap ? _toPhysical[aggressor.value()] : aggressor;
    for (unsigned d = 1; d <= _config.mu.size(); ++d) {
        const double amount = _config.mu[d - 1];
        const auto dist = static_cast<Row::difference_type>(d);
        if (phys.value() >= d) {
            const Row victim_phys = phys - dist;
            deposit(cells, cycle,
                    _config.remap ? _toLogical[victim_phys.value()]
                                  : victim_phys,
                    amount);
        }
        if (phys.value() + d < _numRows) {
            const Row victim_phys = phys + dist;
            deposit(cells, cycle,
                    _config.remap ? _toLogical[victim_phys.value()]
                                  : victim_phys,
                    amount);
        }
    }
}

bool
FaultModel::append(std::uint32_t entry)
{
    if (_log.size() == _numRows / 8)
        return false;
    _log.push_back(entry);
    return true;
}

void
FaultModel::replay()
{
    _logging = false;
    if (_log.empty())
        return; // a fresh bank: its table is already the empty one
    const std::vector<std::uint32_t> log = std::exchange(_log, {});
    auto &cells = std::get<std::vector<CountCell>>(_cells);
    // Size the empty table once for the log's victims (2 * radius per
    // distinct aggressor) as far as the sparse cap allows: a doubling
    // chain grown in one burst is memory a worker's heap keeps. Only
    // the footprint depends on it; the switch to dense still comes at
    // the same live-row count.
    std::vector<bool> seen(_numRows);
    std::size_t victims = 0;
    for (const std::uint32_t entry : log) {
        // Refresh entries carry the tag, so they fail the range test.
        if (entry < _numRows && !seen[entry]) {
            seen[entry] = true;
            victims += 2 * _config.mu.size();
        }
    }
    std::size_t slots = cells.size();
    while (slots < 2 * victims && 2 * slots <= _numRows / 4)
        slots *= 2;
    cells = std::vector<CountCell>(slots);
    // Through the public entry points, now past the log, so that the
    // table code keeps one call site each (and stays inlined there).
    for (const std::uint32_t entry : log) {
        if (entry & kRefreshTag)
            onRowRefresh(Row{entry & ~kRefreshTag});
        else if (entry & kStripeTag)
            onRefreshStripe(Row{entry & ~kStripeTag}, _logStripeRows);
        else
            onActivate(Cycle{}, Row{entry});
    }
    GRAPHENE_CHECK(_flips.empty(),
                   "fault model: a flip landed inside the ACT log");
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
    // Assign a fresh vector so a restore releases a dense array it
    // replaces.
    std::visit(
        [this](auto &cells) {
            cells = std::decay_t<decltype(cells)>(_dense ? _numRows
                                                         : kMinSlots);
        },
        _cells);
    _live = 0;
}

template <class Cell>
std::size_t
FaultModel::homeSlot(const std::vector<Cell> &cells, Row row)
{
    // Aligned groups of eight rows keep eight consecutive home slots
    // (one cache line of count cells, two of charge cells), so an
    // aggressor's two neighbours and a REF stripe share lines;
    // Fibonacci hashing scatters the groups.
    const int group_bits = std::countr_zero(cells.size()) - 3;
    const std::uint64_t group =
        (std::uint64_t{row.value() >> 3} * 0x9e3779b97f4a7c15ULL) >>
        (64 - group_bits);
    return static_cast<std::size_t>(group << 3 | (row.value() & 7));
}

template <class Cell>
std::size_t
FaultModel::slotOf(const std::vector<Cell> &cells, Row row)
{
    const std::uint32_t key = row.value() + 1;
    const std::size_t mask = cells.size() - 1;
    std::size_t i = homeSlot(cells, row);
    while (cells[i].key != key && cells[i].key != 0)
        i = (i + 1) & mask;
    return i;
}

template <class Cell>
Cell &
FaultModel::cellFor(std::vector<Cell> &cells, Row row)
{
    if (_dense)
        return cells[row.value()];
    Cell *cell = &cells[slotOf(cells, row)];
    if (cell->key == 0) {
        if (2 * (_live + 1) > cells.size()) {
            grow(cells);
            if (_dense)
                return cells[row.value()];
            cell = &cells[slotOf(cells, row)];
        }
        cell->key = row.value() + 1;
        ++_live;
    }
    return *cell;
}

template <class Cell>
void
FaultModel::grow(std::vector<Cell> &cells)
{
    const std::size_t slots = 2 * cells.size();
    // Past a quarter of the dense footprint: switch for good.
    _dense = slots > _numRows / 4;
    const std::vector<Cell> old =
        std::exchange(cells, std::vector<Cell>(_dense ? _numRows : slots));
    for (Cell c : old) {
        if (c.key == 0)
            continue;
        const Row row{c.key - 1};
        if (_dense) {
            c.key = 0;
            cells[row.value()] = c;
        } else {
            cells[slotOf(cells, row)] = c;
        }
    }
}

template <class Cell>
void
FaultModel::deposit(std::vector<Cell> &cells, Cycle cycle, Row victim,
                    double amount)
{
    Cell &cell = cellFor(cells, victim);
    if constexpr (std::is_same_v<Cell, CountCell>) {
        // Unit weights: amount is 1.0.
        GRAPHENE_CHECK((cell.state & ~CountCell::kFlipped) !=
                           ~CountCell::kFlipped,
                       "fault model: ACT count of row %u overflows",
                       victim.value());
        ++cell.state;
    } else {
        cell.disturbance += amount;
    }
    const double charge = cell.charge();
    if (charge > _peak)
        _peak = charge;
    if (!cell.flipped() && charge >= _config.rowHammerThreshold) {
        cell.latch();
        _flips.push_back({victim, cycle, charge});
    }
}

void
FaultModel::onRowRefresh(Row row)
{
    GRAPHENE_CHECK(row.value() < _numRows,
                   "refresh of out-of-range row %u", row.value());
    if (_logging) {
        if (append(row.value() | kRefreshTag))
            return;
        replay();
    }
    std::visit([&](auto &cells) { clear(cells, row); }, _cells);
}

void
FaultModel::onRefreshStripe(Row first, std::uint64_t rows)
{
    GRAPHENE_CHECK(first.value() < _numRows && rows > 0 && rows <= _numRows,
                   "refresh stripe of %llu rows from row %u out of range",
                   static_cast<unsigned long long>(rows), first.value());
    if (_logging) {
        if (_logStripeRows == 0)
            _logStripeRows = rows;
        if (rows == _logStripeRows && append(first.value() | kStripeTag))
            return;
        replay();
    }
    std::visit(
        [&](auto &cells) {
            for (std::uint64_t i = 0; i < rows; ++i)
                clear(cells, Row{static_cast<Row::rep>(
                                 (first.value() + i) % _numRows)});
        },
        _cells);
}

template <class Cell>
void
FaultModel::clear(std::vector<Cell> &cells, Row row)
{
    if (_dense) {
        cells[row.value()] = Cell{};
        return;
    }
    std::size_t hole = slotOf(cells, row);
    if (cells[hole].key == 0)
        return; // undisturbed since its last refresh
    const std::size_t mask = cells.size() - 1;
    // Backward-shift deletion: pull later members of the probe run
    // into the hole unless their home lies cyclically in (hole, j].
    for (std::size_t j = (hole + 1) & mask; cells[j].key != 0;
         j = (j + 1) & mask) {
        const std::size_t home = homeSlot(cells, Row{cells[j].key - 1});
        const bool stays = hole <= j ? hole < home && home <= j
                                     : hole < home || home <= j;
        if (!stays) {
            cells[hole] = cells[j];
            hole = j;
        }
    }
    cells[hole] = Cell{};
    --_live;
}

double
FaultModel::disturbance(Row row) const
{
    if (row.value() >= _numRows)
        return 0.0;
    settle();
    // An absent row's probe ends on an empty slot, which holds 0.
    return std::visit(
        [&](const auto &cells) {
            return cells[_dense ? row.value() : slotOf(cells, row)]
                .charge();
        },
        _cells);
}

void
FaultModel::saveState(ckpt::Writer &w) const
{
    settle();
    std::visit([&](const auto &cells) { saveCells(cells, w); }, _cells);
    w.u64(_flips.size());
    for (const BitFlip &f : _flips) {
        w.u32(f.victimRow.value());
        w.u64(f.cycle.value());
        w.f64(f.disturbance);
    }
    w.f64(_peak);
}

template <class Cell>
void
FaultModel::saveCells(const std::vector<Cell> &cells,
                      ckpt::Writer &w) const
{
    // Only non-default cells, in row order, whichever the storage
    // mode and cell type: the bytes are a function of the charge
    // state alone.
    const auto charged = [](const Cell &c) {
        return c.charge() != 0.0 || c.flipped();
    };
    const auto write = [&w](Row row, const Cell &c) {
        w.u32(row.value());
        w.f64(c.charge());
        w.boolean(c.flipped());
    };
    if (_dense) {
        w.u64(static_cast<std::uint64_t>(
            std::count_if(cells.begin(), cells.end(), charged)));
        for (std::size_t i = 0; i < cells.size(); ++i)
            if (charged(cells[i]))
                write(Row{static_cast<Row::rep>(i)}, cells[i]);
    } else {
        std::vector<const Cell *> live;
        live.reserve(_live);
        for (const Cell &c : cells)
            if (c.key != 0 && charged(c))
                live.push_back(&c);
        std::sort(live.begin(), live.end(),
                  [](const Cell *a, const Cell *b) { return a->key < b->key; });
        w.u64(live.size());
        for (const Cell *c : live)
            write(Row{c->key - 1}, *c);
    }
}

void
FaultModel::restoreState(ckpt::Reader &r)
{
    _logging = false;
    _log = {};
    resetCells();
    if (!std::visit([&](auto &cells) { return restoreCells(cells, r); },
                    _cells)) {
        r.fail();
        return;
    }
    _flips.clear();
    const std::uint64_t flip_count = r.u64();
    if (flip_count > _numRows) {
        r.fail();
        return;
    }
    for (std::uint64_t i = 0; i < flip_count && !r.failed(); ++i) {
        BitFlip f{Row{r.u32()}, Cycle{r.u64()}, r.f64()};
        if (f.victimRow.value() >= _numRows) {
            r.fail();
            return;
        }
        _flips.push_back(f);
    }
    _peak = r.f64();
}

template <class Cell>
bool
FaultModel::restoreCells(std::vector<Cell> &cells, ckpt::Reader &r)
{
    const std::uint64_t live = r.u64();
    if (live > _numRows)
        return false;
    for (std::uint64_t i = 0; i < live && !r.failed(); ++i) {
        const Row row{r.u32()};
        const double charge = r.f64();
        const bool flipped = r.boolean();
        if (row.value() >= _numRows)
            return false;
        Cell &cell = cellFor(cells, row);
        if constexpr (std::is_same_v<Cell, CountCell>) {
            // A count is an exact integer below the flip bit.
            if (!(charge >= 0.0 && charge < CountCell::kFlipped) ||
                charge != std::trunc(charge))
                return false;
            cell.state = static_cast<std::uint32_t>(charge) |
                         (flipped ? CountCell::kFlipped : 0);
        } else {
            cell.disturbance = charge;
            cell.latched = flipped;
        }
    }
    return true;
}

} // namespace dram
} // namespace graphene
