/**
 * @file
 * Fingerprint sensitivity: every tagged field's name, type, order,
 * and value must reach the digest, and the scheme-spec
 * perturbation corpus must never alias a perturbed scheme spec onto
 * the base spec's fingerprint (a collision there would serve stale
 * cache entries for a different configuration).
 */

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "exp/fingerprint.hh"
#include "sim/experiment.hh"
#include "spec_perturbation.hh"

namespace {

using namespace graphene;
using exp::Fingerprint;

TEST(ExpFingerprint, ValueReachesDigest)
{
    Fingerprint a, b;
    a.field("x", std::uint64_t{1});
    b.field("x", std::uint64_t{2});
    EXPECT_NE(a.digest(), b.digest());
}

TEST(ExpFingerprint, FieldNameReachesDigest)
{
    Fingerprint a, b;
    a.field("x", std::uint64_t{1});
    b.field("y", std::uint64_t{1});
    EXPECT_NE(a.digest(), b.digest());
}

TEST(ExpFingerprint, FieldOrderReachesDigest)
{
    Fingerprint a, b;
    a.field("x", std::uint64_t{1}).field("y", std::uint64_t{2});
    b.field("y", std::uint64_t{2}).field("x", std::uint64_t{1});
    EXPECT_NE(a.digest(), b.digest());
}

TEST(ExpFingerprint, TypeMarkerSeparatesEqualBitPatterns)
{
    // uint64 1, bool true, and the string "\x01" must all hash
    // differently under the same field name.
    Fingerprint u, b, s;
    u.field("v", std::uint64_t{1});
    b.field("v", true);
    s.field("v", std::string("\x01"));
    EXPECT_NE(u.digest(), b.digest());
    EXPECT_NE(u.digest(), s.digest());
    EXPECT_NE(b.digest(), s.digest());
}

TEST(ExpFingerprint, DoubleHashesExactBitPattern)
{
    Fingerprint a, b;
    a.field("v", 0.1);
    b.field("v", 0.1 + 1e-18); // same value after rounding
    EXPECT_EQ(a.digest(), b.digest());

    Fingerprint c;
    c.field("v", 0.2);
    EXPECT_NE(a.digest(), c.digest());
}

TEST(ExpFingerprint, ConcatenationIsNotAmbiguous)
{
    // ("ab", "c") vs ("a", "bc"): length prefixes must separate
    // adjacent string fields.
    Fingerprint a, b;
    a.field("v", std::string("ab")).field("w", std::string("c"));
    b.field("v", std::string("a")).field("w", std::string("bc"));
    EXPECT_NE(a.digest(), b.digest());
}

TEST(ExpFingerprint, HexIsFixedWidth)
{
    EXPECT_EQ(Fingerprint::hex(0), "0000000000000000");
    EXPECT_EQ(Fingerprint::hex(0xabcULL), "0000000000000abc");
    EXPECT_EQ(Fingerprint::hex(~0ULL), "ffffffffffffffff");
}

TEST(ExpFingerprint, DeriveSeedDecorrelates)
{
    // Consecutive digests must not map to consecutive seeds.
    const std::uint64_t s1 = exp::deriveSeed(1);
    const std::uint64_t s2 = exp::deriveSeed(2);
    EXPECT_NE(s1, 1u);
    EXPECT_NE(s2 - s1, 1u);
    EXPECT_EQ(s1, exp::deriveSeed(1));
}

/**
 * Satellite: drive the production scheme-spec fingerprint with the
 * scheme-spec perturbation corpus. Every perturbed spec that
 * differs from the base in any field must hash differently; specs
 * the perturbation happened to leave unchanged must hash equal.
 */
TEST(ExpFingerprint, PerturbedSchemeSpecsNeverAliasTheBase)
{
    schemes::SchemeSpec base;
    base.kind = schemes::SchemeKind::Graphene;
    const std::uint64_t base_digest = sim::schemeSpecDigest(base);

    unsigned changed = 0;
    test::perturbSchemeSpecs(
        base, 200, 12345,
        [&](const schemes::SchemeSpec &spec) {
            const bool same_fields =
                spec.rowHammerThreshold == base.rowHammerThreshold &&
                spec.blastRadius == base.blastRadius &&
                spec.grapheneK == base.grapheneK;
            const std::uint64_t digest = sim::schemeSpecDigest(spec);
            EXPECT_EQ(digest == base_digest, same_fields)
                << "threshold=" << spec.rowHammerThreshold
                << " blast=" << spec.blastRadius
                << " k=" << spec.grapheneK;
            if (!same_fields)
                ++changed;
        });
    // The corpus must actually exercise the property.
    EXPECT_GT(changed, 100u);
}

TEST(ExpFingerprint, SchemeKindReachesSchemeDigest)
{
    schemes::SchemeSpec a, b;
    a.kind = schemes::SchemeKind::Graphene;
    b.kind = schemes::SchemeKind::Para;
    EXPECT_NE(sim::schemeSpecDigest(a), sim::schemeSpecDigest(b));
}

} // namespace
