/**
 * @file
 * Test-only checkpoint-corruption campaigns: deterministic
 * single-bit flips over a serialized checkpoint container.
 *
 * The campaign attacks state *at rest* — the bytes of a
 * ckpt::encode() container sitting on disk between a crash and a
 * resume. The safety contract under test is the restore side's:
 * every corrupted container must be rejected by ckpt::decode() with
 * a typed checkpoint error (CkptTruncated / CkptBadHeader /
 * CkptVersionSkew / CkptBadPayload / CkptConfigMismatch), never
 * silently restored into a diverging simulation.
 *
 * The schedule is a pure function of the plan: same seed and blob
 * size, byte-identical schedule and fingerprint() — a corruption
 * campaign is replayable from its seed alone.
 */

#ifndef TESTS_CKPT_CKPT_FAULTS_HH
#define TESTS_CKPT_CKPT_FAULTS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace graphene {
namespace test {

/** One scheduled checkpoint corruption: flip @p bit of byte
 *  @p offset. */
struct CkptFaultEvent
{
    std::size_t offset = 0; ///< Byte index into the container.
    unsigned bit = 0;       ///< Bit to flip, [0, 8).

    friend bool operator==(const CkptFaultEvent &a,
                           const CkptFaultEvent &b)
    {
        return a.offset == b.offset && a.bit == b.bit;
    }
};

/** Declarative description of one corruption campaign. */
struct CkptFaultPlan
{
    std::uint64_t seed = 1;

    /** Number of single-bit corruptions to schedule. */
    unsigned faults = 64;
};

/**
 * Deterministic corruption-schedule generator over a container of
 * @p blob_size bytes. Offsets are drawn uniformly over the whole
 * container, so a campaign exercises header fields, checksums, and
 * payload bytes alike.
 */
class CkptFaultInjector
{
  public:
    CkptFaultInjector(const CkptFaultPlan &plan,
                      std::size_t blob_size);

    const CkptFaultPlan &plan() const { return _plan; }

    /** The full schedule, sorted by offset (stable within one). */
    const std::vector<CkptFaultEvent> &schedule() const
    {
        return _schedule;
    }

    /** FNV-1a over every event, in order (replayability witness). */
    std::uint64_t fingerprint() const;

  private:
    CkptFaultPlan _plan;
    std::vector<CkptFaultEvent> _schedule;
};

/** A copy of @p blob with @p event's bit flipped. */
std::vector<std::uint8_t>
applyCkptFault(const std::vector<std::uint8_t> &blob,
               const CkptFaultEvent &event);

} // namespace test
} // namespace graphene

#endif // TESTS_CKPT_CKPT_FAULTS_HH
