/**
 * @file
 * The scheme-spec perturbation corpus partitions its trials into
 * typed rejections and working schemes, deterministically.
 */

#include "spec_perturbation.hh"

#include <gtest/gtest.h>

namespace graphene {
namespace test {
namespace {

TEST(ExpSpecPerturbation, SweepPartitionsTrials)
{
    schemes::SchemeSpec base;
    base.kind = schemes::SchemeKind::Graphene;
    const unsigned trials = 200;
    const PerturbationReport report =
        perturbSchemeSpecs(base, trials, 0x12345ULL);
    EXPECT_EQ(report.trials, trials);
    EXPECT_EQ(report.trials, report.rejectedTyped + report.accepted);
    // The sweep flips real bits; both outcomes must occur.
    EXPECT_GT(report.rejectedTyped, 0u);
    EXPECT_GT(report.accepted, 0u);

    const PerturbationReport again =
        perturbSchemeSpecs(base, trials, 0x12345ULL);
    EXPECT_EQ(report.summary(), again.summary());
}

} // namespace
} // namespace test
} // namespace graphene
