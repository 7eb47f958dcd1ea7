/**
 * @file
 * Tests for the checkpoint serialization primitives: round-trips for
 * every encoded type, the sticky-failure bounds contract, and the
 * finish() terminal check.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "ckpt/io.hh"

namespace graphene {
namespace ckpt {
namespace {

TEST(CkptIo, RoundTripsEveryType)
{
    Writer w;
    w.u8(0xab);
    w.u32(0xdeadbeefu);
    w.u64(0x0123456789abcdefULL);
    w.f64(3.141592653589793);
    w.f64(-0.0);
    w.boolean(true);
    w.boolean(false);
    w.str("graphene");
    w.str("");

    Reader r(w.data());
    EXPECT_EQ(r.u8(), 0xab);
    EXPECT_EQ(r.u32(), 0xdeadbeefu);
    EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
    EXPECT_EQ(r.f64(), 3.141592653589793);
    const double neg_zero = r.f64();
    EXPECT_EQ(neg_zero, 0.0);
    EXPECT_TRUE(std::signbit(neg_zero)) << "bit pattern not preserved";
    EXPECT_TRUE(r.boolean());
    EXPECT_FALSE(r.boolean());
    EXPECT_EQ(r.str(), "graphene");
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.finish().ok());
}

TEST(CkptIo, NanRoundTripsBitExactly)
{
    Writer w;
    w.f64(std::numeric_limits<double>::quiet_NaN());
    Reader r(w.data());
    EXPECT_TRUE(std::isnan(r.f64()));
    EXPECT_TRUE(r.finish().ok());
}

TEST(CkptIo, ShortReadLatchesAndReturnsZeroes)
{
    Writer w;
    w.u32(7);
    Reader r(w.data());
    EXPECT_EQ(r.u64(), 0u) << "short read must yield a zero value";
    EXPECT_TRUE(r.failed());
    // Every later read stays harmless and zero-valued.
    EXPECT_EQ(r.u32(), 0u);
    EXPECT_EQ(r.str(), "");
    const Result<void> fin = r.finish();
    ASSERT_FALSE(fin.ok());
    EXPECT_EQ(fin.error().code(), ErrorCode::CkptTruncated);
    EXPECT_NE(fin.error().message().find("ended early"),
              std::string::npos)
        << fin.error().message();
}

TEST(CkptIo, HugeStringLengthCannotIndexOutOfBounds)
{
    Writer w;
    w.u64(std::numeric_limits<std::uint64_t>::max());
    w.u8(1);
    Reader r(w.data());
    EXPECT_EQ(r.str(), "");
    EXPECT_TRUE(r.failed());
    EXPECT_FALSE(r.finish().ok());
}

TEST(CkptIo, CountIsBoundedByRemainingBytes)
{
    // A count up to the bytes left is taken as is...
    Writer w;
    w.u64(3);
    w.bytes("abc", 3);
    Reader r(w.data());
    EXPECT_EQ(r.count(), 3u);
    EXPECT_FALSE(r.failed());

    // ...one above them cannot be honest: it fails and reads as 0.
    Writer over;
    over.u64(4);
    over.bytes("abc", 3);
    Reader bad(over.data());
    EXPECT_EQ(bad.count(), 0u);
    EXPECT_TRUE(bad.failed());
    const Result<void> fin = bad.finish();
    EXPECT_EQ(fin.error().code(), ErrorCode::CkptTruncated);
    // An over-claimed count is a payload that ran short, not a value
    // that failed validation.
    EXPECT_NE(fin.error().message().find("ended early"),
              std::string::npos)
        << fin.error().message();
}

TEST(CkptIo, TrailingBytesFailFinish)
{
    Writer w;
    w.u64(1);
    w.u64(2);
    Reader r(w.data());
    EXPECT_EQ(r.u64(), 1u);
    const Result<void> fin = r.finish();
    ASSERT_FALSE(fin.ok());
    EXPECT_EQ(fin.error().code(), ErrorCode::Internal);
}

TEST(CkptIo, ExplicitFailLatches)
{
    Writer w;
    w.u64(42);
    Reader r(w.data());
    EXPECT_EQ(r.u64(), 42u);
    r.fail(); // restore-side validation rejected a value
    EXPECT_EQ(r.u64(), 0u); // later reads neither advance nor clear
    r.fail();
    const Result<void> fin = r.finish();
    ASSERT_FALSE(fin.ok());
    EXPECT_EQ(fin.error().code(), ErrorCode::CkptTruncated);
    // Reported as a rejected value at the reader's offset, not as a
    // payload that ended early.
    EXPECT_EQ(fin.error().message(),
              "checkpoint payload rejected: a restored value failed "
              "validation at byte 8 of 8");
}

TEST(CkptIo, FailAfterAShortReadStaysAShortRead)
{
    Writer w;
    w.u32(7);
    Reader r(w.data());
    EXPECT_EQ(r.u64(), 0u);
    r.fail(); // validation of the zero the short read returned
    const Result<void> fin = r.finish();
    ASSERT_FALSE(fin.ok());
    EXPECT_NE(fin.error().message().find("ended early"),
              std::string::npos)
        << fin.error().message();
}

} // namespace
} // namespace ckpt
} // namespace graphene
