/**
 * @file
 * Test-only scheme-spec perturbation corpus: seeded random upsets of
 * a spec's threshold, blast radius and reset divisor. The exp::
 * fingerprint and cache tests use it to assert that no perturbed
 * spec aliases the base spec's digest or cache address, and the
 * sweep itself asserts that every perturbed spec is either rejected
 * with a typed error or builds a working scheme.
 */

#ifndef TESTS_EXP_SPEC_PERTURBATION_HH
#define TESTS_EXP_SPEC_PERTURBATION_HH

#include <cstdint>
#include <functional>
#include <string>

#include "schemes/factory.hh"

namespace graphene {
namespace test {

/** Outcome of one perturbation sweep. */
struct PerturbationReport
{
    unsigned trials = 0;

    /** Perturbed specs rejected with a typed Config/Parse error. */
    unsigned rejectedTyped = 0;

    /** Perturbed specs that still validated and built a scheme. */
    unsigned accepted = 0;

    /** Deterministic one-line summary. */
    std::string summary() const;
};

/**
 * Flip random fields of @p base (threshold bits, blast radius, reset
 * divisor) @p trials times, handing every perturbed spec to
 * @p observe (may be null) before validation. Each perturbed spec
 * must either be rejected by schemes::validateSchemeSpec() with a
 * typed error or build a working scheme — never crash.
 * trials == rejectedTyped + accepted holds on return.
 */
PerturbationReport
perturbSchemeSpecs(const schemes::SchemeSpec &base, unsigned trials,
                   std::uint64_t seed,
                   const std::function<void(const schemes::SchemeSpec &)>
                       &observe = nullptr);

} // namespace test
} // namespace graphene

#endif // TESTS_EXP_SPEC_PERTURBATION_HH
