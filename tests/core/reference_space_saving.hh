/**
 * @file
 * The bucket-map SpaceSavingTracker, kept as a differential
 * reference for core::SpaceSavingTracker (tracker_diff_test.cc).
 *
 * Space Saving [Metwally et al., ICDT 2005], one of the alternative
 * frequent-elements algorithms the paper surveys (Section VI).
 *
 * Like Misra-Gries it keeps a fixed set of (row, count) entries, but
 * on a miss it always evicts the *minimum-count* entry and the
 * newcomer inherits that minimum plus one — so there is no spillover
 * register and the table is always full after N distinct rows.
 *
 * Soundness for Row Hammer: every entry's count upper-bounds the
 * actual activations of its row (the inherited minimum upper-bounds
 * whatever the row accumulated while untracked), and an untracked
 * row's actual count is at most the current minimum. With the same
 * capacity as Graphene's table the minimum is bounded by
 * W / Nentry < T + slack, so the multiple-of-T trigger policy carries
 * over (the TrackerScheme handles the insertion jump crossing
 * multiple thresholds at once).
 */

#ifndef TESTS_CORE_REFERENCE_SPACE_SAVING_HH
#define TESTS_CORE_REFERENCE_SPACE_SAVING_HH

#include <cstdint>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/tracker.hh"

namespace graphene {
namespace core {
namespace ref {

/** Space Saving stream summary. */
class SpaceSavingTracker : public AggressorTracker
{
  public:
    explicit SpaceSavingTracker(unsigned entries);

    std::string name() const override;
    ActCount processActivation(Row row) override;
    ActCount estimatedCount(Row row) const override;
    void reset() override;
    TableCost cost(std::uint64_t rows_per_bank) const override;
    double
    overestimateBound(ActCount stream_length) const override;

    /** Smallest count in the summary (0 while not yet full). */
    ActCount minCount() const;

    unsigned capacity() const { return _capacity; }
    ActCount streamLength() const { return ActCount{_streamLength}; }

    /** Panic unless sum(counts) == stream length and the minimum is
     *  consistent (test hook). */
    void checkInvariants() const;

  private:
    struct Entry
    {
        Row addr;
        std::uint64_t count;
    };

    void moveBucket(unsigned slot, std::uint64_t from,
                    std::uint64_t to);

    unsigned _capacity;
    std::vector<Entry> _entries;
    std::unordered_map<Row, unsigned> _index;
    /// Ordered count -> slots map; begin() is the minimum bucket.
    std::map<std::uint64_t, std::set<unsigned>> _buckets;
    std::uint64_t _streamLength = 0;
};

} // namespace ref
} // namespace core
} // namespace graphene

#endif // TESTS_CORE_REFERENCE_SPACE_SAVING_HH
