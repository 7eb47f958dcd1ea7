/**
 * @file
 * Checkpoint-corruption fault family: deterministic schedules, and
 * the restore-side safety contract — every single-bit flip of a
 * checkpoint container is rejected with a typed error.
 */

#include "ckpt_faults.hh"

#include <gtest/gtest.h>

#include "ckpt/checkpoint.hh"
#include "ckpt/io.hh"

namespace graphene {
namespace test {
namespace {

std::vector<std::uint8_t>
sampleContainer()
{
    ckpt::Writer w;
    w.u64(0x1234'5678'9abc'def0ULL);
    w.str("checkpoint corruption campaign payload");
    for (unsigned i = 0; i < 32; ++i)
        w.u32(i * 2654435761u);
    return ckpt::encode(0xfeedface12345678ULL, w.data());
}

TEST(CkptFaults, ScheduleIsAPureFunctionOfThePlan)
{
    CkptFaultPlan plan;
    plan.seed = 77;
    plan.faults = 32;
    const CkptFaultInjector a(plan, 512);
    const CkptFaultInjector b(plan, 512);
    EXPECT_EQ(a.schedule(), b.schedule());
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    plan.seed = 78;
    const CkptFaultInjector c(plan, 512);
    EXPECT_NE(a.fingerprint(), c.fingerprint());
}

TEST(CkptFaults, ScheduleStaysInsideTheContainer)
{
    CkptFaultPlan plan;
    plan.faults = 200;
    const CkptFaultInjector injector(plan, 64);
    for (const CkptFaultEvent &e : injector.schedule()) {
        EXPECT_LT(e.offset, 64u);
        EXPECT_LT(e.bit, 8u);
    }
}

TEST(CkptFaults, ApplyFlipsExactlyOneBit)
{
    const std::vector<std::uint8_t> blob = sampleContainer();
    const CkptFaultEvent event{9, 3};
    const std::vector<std::uint8_t> corrupted =
        applyCkptFault(blob, event);
    ASSERT_EQ(corrupted.size(), blob.size());
    unsigned diff_bits = 0;
    for (std::size_t i = 0; i < blob.size(); ++i)
        diff_bits += static_cast<unsigned>(
            __builtin_popcount(blob[i] ^ corrupted[i]));
    EXPECT_EQ(diff_bits, 1u);
    EXPECT_NE(corrupted[9], blob[9]);
}

/** The load-bearing contract: no scheduled corruption ever decodes.
 *  Every bit of the container is covered by magic, version, header
 *  checksum, or payload checksum, so a campaign drawn uniformly
 *  over the whole container must be rejected wholesale — each with
 *  a typed checkpoint error, never UB or a silent wrong restore. */
TEST(CkptFaults, EveryScheduledCorruptionIsRejectedTyped)
{
    const std::vector<std::uint8_t> blob = sampleContainer();
    {
        // Sanity: the uncorrupted container decodes.
        const Result<ckpt::Blob> ok =
            ckpt::decode(blob, 0xfeedface12345678ULL);
        ASSERT_TRUE(ok.ok());
    }

    CkptFaultPlan plan;
    plan.seed = 2024;
    plan.faults = 256;
    const CkptFaultInjector injector(plan, blob.size());
    for (const CkptFaultEvent &event : injector.schedule()) {
        const Result<ckpt::Blob> decoded = ckpt::decode(
            applyCkptFault(blob, event), 0xfeedface12345678ULL);
        ASSERT_FALSE(decoded.ok())
            << "bit " << event.bit << " of byte " << event.offset
            << " decoded after corruption";
        const ErrorCode code = decoded.error().code();
        EXPECT_TRUE(code == ErrorCode::CkptTruncated ||
                    code == ErrorCode::CkptBadHeader ||
                    code == ErrorCode::CkptVersionSkew ||
                    code == ErrorCode::CkptBadPayload ||
                    code == ErrorCode::CkptConfigMismatch)
            << "unexpected code " << errorCodeName(code)
            << " for bit " << event.bit << " of byte "
            << event.offset;
    }
}

} // namespace
} // namespace test
} // namespace graphene
