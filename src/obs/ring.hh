/**
 * @file
 * A fixed-capacity event ring with drop-newest overflow policy.
 *
 * "Ring" names the bounded-buffer role, not a wrap-around: once the
 * buffer is full, *new* events are dropped (and counted) rather than
 * evicting old ones. Keeping the earliest events makes every retained
 * trace a complete prefix of the run — the window structure, the
 * first threshold crossings, and the first faults are always present,
 * which is what post-mortem debugging needs — and makes the drop
 * count a pure function of the event stream, so traces stay
 * byte-identical across `--jobs` counts (DESIGN.md §11).
 */

#ifndef OBS_RING_HH
#define OBS_RING_HH

#include <cstdint>
#include <vector>

#include "obs/event.hh"

namespace graphene {
namespace obs {

/** Default per-bank event capacity (every traced runner cell's). */
inline constexpr std::size_t kDefaultRingCapacity = 1u << 14;

class EventRing
{
  public:
    explicit EventRing(std::size_t capacity = kDefaultRingCapacity)
        : _capacity(capacity ? capacity : 1)
    {
    }

    /** Record @p e; returns false (and counts a drop) when full. */
    bool push(const Event &e)
    {
        if (_events.size() >= _capacity) {
            ++_dropped;
            return false;
        }
        _events.push_back(e);
        return true;
    }

    const std::vector<Event> &events() const { return _events; }
    std::size_t size() const { return _events.size(); }
    std::size_t capacity() const { return _capacity; }

    /** Events rejected after the ring filled. */
    std::uint64_t dropped() const { return _dropped; }

    /**
     * Peak occupancy. Under drop-newest the buffer never shrinks, so
     * the peak is simply the current size.
     */
    std::size_t peakOccupancy() const { return _events.size(); }

  private:
    std::size_t _capacity;
    std::vector<Event> _events;
    std::uint64_t _dropped = 0;
};

} // namespace obs
} // namespace graphene

#endif // OBS_RING_HH
