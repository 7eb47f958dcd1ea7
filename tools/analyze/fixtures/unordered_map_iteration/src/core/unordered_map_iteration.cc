// Known-bad fixture: unmarked unordered_map iteration in a hot path.
#include <cstdint>
#include <unordered_map>

namespace fixture {

struct Tracker
{
    std::unordered_map<std::uint32_t, std::uint64_t> entries;

    std::uint64_t
    sum() const
    {
        std::uint64_t total = 0;
        for (const auto &kv : entries)
            total += kv.second;
        return total;
    }

    std::uint64_t
    auditedSum() const
    {
        std::uint64_t total = 0;
        // analyze: allow(unordered-map-iteration) — pure sum, commutative.
        for (const auto &kv : entries)
            total += kv.second;
        return total;
    }
};

} // namespace fixture
