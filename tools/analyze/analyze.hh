/**
 * @file
 * graphene_analyze: whole-repo structural static analysis.
 *
 * Where graphene_lint enforces line-level conventions, this tool
 * checks file- and graph-level properties of the tree (no libclang —
 * the same token-level scanning substrate from tools/common). Five
 * passes — layer-dag, fingerprint-completeness, result-discard,
 * coverage-audit, ckpt-completeness — report these rules:
 *
 *   layer-dag              The architecture layering declared in
 *                          tools/analyze/layers.toml must hold in
 *                          the real `#include` graph: an include may
 *                          only cross from a layer to one of its
 *                          declared dependencies. Back-edges fail.
 *   include-cycle          The resolved quoted-include graph must be
 *                          acyclic (reported with the full cycle).
 *   fingerprint-completeness
 *                          Every field of a struct handed to a
 *                          fingerprint adder function must be folded
 *                          into the digest — a forgotten field means
 *                          two *different* experiment specs share a
 *                          cache address and the runner silently
 *                          returns stale results. Deliberately
 *                          unhashed fields carry an explicit
 *                          `analyze: fp-exempt(<field>)` waiver with
 *                          a rationale.
 *   result-discard         `Result`-returning calls must not be
 *                          discarded: no `(void)` casts, no bare-
 *                          statement calls, and no unwrapOrFatal()
 *                          outside CLI/bench main() boundaries
 *                          (library code propagates typed errors).
 *   coverage-audit         ProtectionScheme / tracker entry points
 *                          lacking both a GRAPHENE_* contract and an
 *                          obs:: probe report are gaps. Existing
 *                          gaps live in a committed baseline file
 *                          (warnings); *new* gaps are errors.
 *   ckpt-completeness      Every `_`-prefixed data member of a class
 *                          defining saveState/restoreState (the
 *                          checkpoint protocol, DESIGN.md §14) must
 *                          be referenced in BOTH bodies — a member
 *                          missing from either side means a kill-
 *                          and-resume silently diverges from the
 *                          uninterrupted run. Deliberately
 *                          unserialized members (config, derived
 *                          caches, transient scratch) carry an
 *                          `analyze: ckpt-exempt(<member>)` waiver
 *                          with a rationale. One-sided pairs
 *                          (saveState without restoreState) are
 *                          errors outright.
 *   stale-baseline         A committed coverage baseline entry
 *                          matching no current finding is an
 *                          error: burned-down debt must be pruned
 *                          from the committed file, or the baseline
 *                          quietly stops meaning anything.
 *
 * Waivers: `analyze: allow(<rule>)` on the finding line or the line
 * above; fingerprint exemptions use `analyze: fp-exempt(<field>)` at
 * the field's declaration site or inside the adder function.
 */

#ifndef TOOLS_ANALYZE_ANALYZE_HH
#define TOOLS_ANALYZE_ANALYZE_HH

#include <cstddef>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/scan.hh"

namespace graphene {
namespace analyze {

using toolscan::Finding;

/** One scanned source file. */
struct SourceFile
{
    std::filesystem::path path;

    /** Root-relative generic path ("src/core/graphene.hh"). */
    std::string rel;

    /** Comment/string-stripped lines (rules match on these). */
    std::vector<std::string> code;

    /** Verbatim lines (waiver markers live here). */
    std::vector<std::string> raw;

    /** The stripped lines joined by '\n' (for cross-line regexes). */
    std::string joined;

    /** Byte offset of each line's start within `joined`. */
    std::vector<std::size_t> lineStart;

    /** 1-based line number of byte offset @p off in `joined`. */
    unsigned lineOf(std::size_t off) const;
};

/** Everything a pass needs: the scanned tree plus config paths. */
struct Corpus
{
    std::filesystem::path root;
    std::filesystem::path layersFile;
    std::filesystem::path baselineFile;

    std::vector<SourceFile> files;

    /** Index into `files` by root-relative path. */
    std::map<std::string, std::size_t> byRel;

    /** Files under src/ (indices), the library-rule scope. */
    std::vector<std::size_t> srcFiles;
};

/**
 * Scan @p root into a corpus: src/ always, plus bench/, examples/,
 * tests/ and tools/ when present (the "top" layer of the DAG).
 * Directories whose name starts with "fixtures" are skipped
 * (known-bad corpora).
 */
Corpus buildCorpus(const std::filesystem::path &root,
                   const std::filesystem::path &layers_file,
                   const std::filesystem::path &baseline_file);

/** The declared layer architecture (parsed layers.toml). */
struct LayerConfig
{
    struct Layer
    {
        std::string name;
        std::vector<std::string> pathPrefixes;
        std::set<std::string> deps;
        bool dependsOnAll = false; ///< deps = ["*"]
        unsigned line = 0;         ///< declaration line in the file
    };

    std::vector<Layer> layers;

    /** Longest-prefix match of @p rel; nullptr when unmapped. */
    const Layer *layerOf(const std::string &rel) const;
};

/**
 * Parse the layers.toml-style config: `[layer.<name>]` sections with
 * `paths = ["..."]` and `deps = ["..."]` (or `deps = ["*"]`).
 * Returns false and fills @p error on malformed input.
 */
bool parseLayersFile(const std::filesystem::path &file,
                     LayerConfig &config, std::string &error);

/** Pass entry points; each appends findings. */
void runLayerPass(const Corpus &corpus,
                  std::vector<Finding> &findings);
void runFingerprintPass(const Corpus &corpus,
                        std::vector<Finding> &findings);
void runResultPass(const Corpus &corpus,
                   std::vector<Finding> &findings);
void runCoveragePass(const Corpus &corpus,
                     std::vector<Finding> &findings);
void runCkptPass(const Corpus &corpus,
                 std::vector<Finding> &findings);

/**
 * Load a baseline file of `key` lines ('#' comments allowed), the
 * shape of coverage_baseline.txt.
 */
std::set<std::string>
loadBaselineFile(const std::filesystem::path &file);

/** All pass names, in execution order. */
const std::vector<std::string> &allPasses();

/** Run the named passes (empty = all) over @p corpus. */
std::vector<Finding> runPasses(const Corpus &corpus,
                               const std::set<std::string> &passes);

// ---- shared parsing helpers (token level) --------------------------

using toolscan::matchBrace;
using toolscan::ScannedFunction;
using toolscan::scanFunctions;

/** A struct field parsed from a definition. */
struct StructField
{
    std::string name;
    std::string type;       ///< declared type text (normalised spaces)
    std::size_t fileIndex;  ///< corpus file holding the declaration
    unsigned line;          ///< 1-based declaration line
};

/** A parsed struct definition. */
struct StructDef
{
    std::string name;
    std::size_t fileIndex = 0;
    unsigned line = 0;
    std::vector<StructField> fields;
};

/**
 * Parse every `struct X { ... };` in the corpus's src/ files into a
 * registry keyed by unqualified name. Ambiguous names (two structs
 * with the same unqualified name) are dropped from the registry —
 * passes must not guess.
 */
std::map<std::string, StructDef>
buildStructRegistry(const Corpus &corpus);

} // namespace analyze
} // namespace graphene

#endif // TOOLS_ANALYZE_ANALYZE_HH
