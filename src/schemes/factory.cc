#include "schemes/factory.hh"

#include "common/logging.hh"
#include "core/graphene.hh"
#include "schemes/cbt.hh"
#include "schemes/mrloc.hh"
#include "schemes/para.hh"
#include "schemes/prohit.hh"
#include "schemes/twice.hh"

namespace graphene {
namespace schemes {

std::string
schemeKindName(SchemeKind kind)
{
    switch (kind) {
      case SchemeKind::None:     return "none";
      case SchemeKind::Graphene: return "Graphene";
      case SchemeKind::Para:     return "PARA";
      case SchemeKind::ProHit:   return "PRoHIT";
      case SchemeKind::MrLoc:    return "MRLoc";
      case SchemeKind::Cbt:      return "CBT";
      case SchemeKind::TwiCe:    return "TWiCe";
    }
    return "?";
}

std::vector<SchemeKind>
evaluatedSchemes()
{
    return {SchemeKind::Para, SchemeKind::Cbt, SchemeKind::TwiCe,
            SchemeKind::Graphene};
}

unsigned
cbtCountersFor(std::uint64_t rh_threshold)
{
    // CBT-128 at 50K; counters double each time the threshold halves
    // (Section V-C).
    unsigned counters = 128;
    std::uint64_t t = 50000;
    while (t / 2 >= rh_threshold && counters < (1u << 20)) {
        counters *= 2;
        t /= 2;
    }
    return counters;
}

unsigned
cbtLevelsFor(std::uint64_t rh_threshold)
{
    unsigned levels = 10;
    std::uint64_t t = 50000;
    while (t / 2 >= rh_threshold) {
        ++levels;
        t /= 2;
    }
    return levels;
}

namespace {

/**
 * Validate a derived per-scheme config and construct the scheme only
 * when every rule passes, so invalid grid cells surface as errors
 * rather than constructor panics.
 */
template <typename Scheme, typename Config>
Result<std::unique_ptr<ProtectionScheme>>
makeValidated(const Config &config)
{
    const Result<void> valid = config.validate();
    if (!valid.ok())
        return valid.error();
    return std::unique_ptr<ProtectionScheme>(
        std::make_unique<Scheme>(config));
}

} // namespace

Result<std::unique_ptr<ProtectionScheme>>
makeScheme(const SchemeSpec &spec)
{
    if (spec.blastRadius == 0)
        return Error(ErrorCode::Config,
                     strprintf("%s spec: blast radius must be >= 1",
                               schemeKindName(spec.kind).c_str()));
    // Guard before any per-scheme derivation: the CBT scaling rules
    // (cbtLevelsFor) and PARA's probability derivation both divide by
    // the threshold.
    if (spec.kind != SchemeKind::None && spec.rowHammerThreshold == 0)
        return Error(ErrorCode::Config,
                     strprintf("%s spec: Row Hammer threshold must be "
                               ">= 1",
                               schemeKindName(spec.kind).c_str()));

    switch (spec.kind) {
      case SchemeKind::None:
        return std::unique_ptr<ProtectionScheme>(nullptr);

      case SchemeKind::Graphene: {
        core::GrapheneConfig config;
        config.rowHammerThreshold = spec.rowHammerThreshold;
        config.resetWindowDivisor = spec.grapheneK;
        config.blastRadius = spec.blastRadius;
        config.mu = core::GrapheneConfig::inverseSquareMu(
            spec.blastRadius);
        config.timing = spec.timing;
        const Result<void> valid = config.validate();
        if (!valid.ok())
            return valid.error();
        return std::unique_ptr<ProtectionScheme>(
            std::make_unique<core::Graphene>(config,
                                             spec.rowsPerBank));
      }

      case SchemeKind::Para: {
        ParaConfig config;
        config.rowsPerBank = spec.rowsPerBank;
        config.seed = spec.seed;
        const double p1 =
            Para::requiredProbability(spec.rowHammerThreshold);
        config.probabilities.assign(1, p1);
        // +/-n support: one probability per distance, scaled by the
        // same inverse-square decay used for Graphene's mu.
        for (unsigned d = 2; d <= spec.blastRadius; ++d)
            config.probabilities.push_back(
                p1 / (static_cast<double>(d) * d));
        return makeValidated<Para>(config);
      }

      case SchemeKind::ProHit: {
        ProHitConfig config;
        config.rowsPerBank = spec.rowsPerBank;
        config.seed = spec.seed;
        return makeValidated<ProHit>(config);
      }

      case SchemeKind::MrLoc: {
        MrLocConfig config;
        config.rowsPerBank = spec.rowsPerBank;
        config.seed = spec.seed;
        config.pBase =
            Para::requiredProbability(spec.rowHammerThreshold);
        return makeValidated<MrLoc>(config);
      }

      case SchemeKind::Cbt: {
        CbtConfig config;
        config.numCounters = cbtCountersFor(spec.rowHammerThreshold);
        config.levels = cbtLevelsFor(spec.rowHammerThreshold);
        config.rowHammerThreshold = spec.rowHammerThreshold;
        config.rowsPerBank = spec.rowsPerBank;
        config.blastRadius = spec.blastRadius;
        config.timing = spec.timing;
        config.assumeContiguous = spec.cbtAssumeContiguous;
        // Experiments sample a long-running system, not a cold boot.
        config.warmStart = true;
        config.warmStartSeed = spec.seed;
        return makeValidated<Cbt>(config);
      }

      case SchemeKind::TwiCe: {
        TwiCeConfig config;
        config.rowHammerThreshold = spec.rowHammerThreshold;
        config.rowsPerBank = spec.rowsPerBank;
        config.blastRadius = spec.blastRadius;
        config.timing = spec.timing;
        return makeValidated<TwiCe>(config);
      }
    }
    return Error(ErrorCode::InvalidArgument, "unknown scheme kind");
}

Result<void>
validateSchemeSpec(const SchemeSpec &spec)
{
    Result<std::unique_ptr<ProtectionScheme>> built = makeScheme(spec);
    if (!built.ok())
        return built.error();
    return Result<void>::success();
}

SchemeSpec
bankSpec(SchemeSpec spec, std::uint64_t rows_per_bank,
         const dram::TimingParams &timing)
{
    spec.rowsPerBank = rows_per_bank;
    spec.timing = timing;
    return spec;
}

void
addSpecErrors(const SchemeSpec &spec, ErrorCollector &errors)
{
    const Result<void> valid = validateSchemeSpec(spec);
    if (valid.ok())
        return;
    errors.add("scheme spec: " + valid.error().message());
    for (const auto &note : valid.error().notes())
        errors.add("scheme spec: " + note);
}

} // namespace schemes
} // namespace graphene
