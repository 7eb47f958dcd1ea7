#include "ckpt_faults.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/random.hh"

namespace graphene {
namespace test {

CkptFaultInjector::CkptFaultInjector(const CkptFaultPlan &plan,
                                     std::size_t blob_size)
    : _plan(plan)
{
    GRAPHENE_CHECK(blob_size > 0,
                   "ckpt fault plan: need a non-empty container");

    Rng rng(plan.seed);
    _schedule.reserve(plan.faults);
    for (unsigned i = 0; i < plan.faults; ++i) {
        CkptFaultEvent event;
        event.offset =
            static_cast<std::size_t>(rng.nextRange(blob_size));
        event.bit = static_cast<unsigned>(rng.nextRange(8));
        _schedule.push_back(event);
    }
    std::stable_sort(_schedule.begin(), _schedule.end(),
                     [](const CkptFaultEvent &a,
                        const CkptFaultEvent &b) {
                         return a.offset < b.offset;
                     });
}

std::uint64_t
CkptFaultInjector::fingerprint() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL; // FNV offset basis
    auto mix = [&h](std::uint64_t v) {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xffULL;
            h *= 0x100000001b3ULL; // FNV prime
        }
    };
    for (const CkptFaultEvent &e : _schedule) {
        mix(e.offset);
        mix(e.bit);
    }
    return h;
}

std::vector<std::uint8_t>
applyCkptFault(const std::vector<std::uint8_t> &blob,
               const CkptFaultEvent &event)
{
    GRAPHENE_CHECK(event.offset < blob.size(),
                   "ckpt fault offset %zu outside a %zu-byte "
                   "container",
                   event.offset, blob.size());
    std::vector<std::uint8_t> corrupted = blob;
    corrupted[event.offset] ^=
        static_cast<std::uint8_t>(1u << (event.bit & 7u));
    return corrupted;
}

} // namespace test
} // namespace graphene
