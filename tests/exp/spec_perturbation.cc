#include "spec_perturbation.hh"

#include "common/error.hh"
#include "common/logging.hh"
#include "common/random.hh"

namespace graphene {
namespace test {

std::string
PerturbationReport::summary() const
{
    return strprintf("config perturbation: %u trial(s), %u rejected "
                     "with typed errors, %u accepted",
                     trials, rejectedTyped, accepted);
}

PerturbationReport
perturbSchemeSpecs(
    const schemes::SchemeSpec &base, unsigned trials,
    std::uint64_t seed,
    const std::function<void(const schemes::SchemeSpec &)> &observe)
{
    PerturbationReport report;
    report.trials = trials;
    Rng rng(seed);
    for (unsigned t = 0; t < trials; ++t) {
        schemes::SchemeSpec spec = base;
        switch (rng.nextRange(4)) {
          case 0:
            // Single-bit upset in the stored threshold field.
            spec.rowHammerThreshold ^= 1ULL << rng.nextRange(18);
            break;
          case 1:
            spec.blastRadius =
                static_cast<unsigned>(rng.nextRange(9));
            break;
          case 2:
            spec.grapheneK =
                static_cast<unsigned>(rng.nextRange(9));
            break;
          default:
            spec.rowHammerThreshold = rng.nextRange(4096);
            break;
        }
        if (observe)
            observe(spec);
        const Result<void> valid =
            schemes::validateSchemeSpec(spec);
        if (valid.ok()) {
            auto built = schemes::makeScheme(spec);
            GRAPHENE_CHECK(built.ok(),
                           "perturbation: spec validated but failed "
                           "to build: %s",
                           built.error().describe().c_str());
            ++report.accepted;
        } else {
            ++report.rejectedTyped;
        }
    }
    return report;
}

} // namespace test
} // namespace graphene
