/**
 * @file
 * Content-addressed on-disk result cache: the runner's one store of
 * completed cells, and what a killed sweep resumes from.
 *
 * A cell's cache entry lives at `<dir>/<key>.gckp` where
 * `key = hex(mix(cell fingerprint, version tag))`: the fingerprint
 * covers every field of the cell spec, and the version tag names the
 * simulator code generation (kCodeVersion) — changing either
 * re-addresses the entry, so any spec or code change is a miss and
 * warm entries are never silently stale.
 *
 * Each entry is a checkpoint container (ckpt::saveFile) whose config
 * fingerprint is the key itself and whose payload is the cell's
 * deterministic JSONL record line. A hit parses the stored line, and
 * re-serialising the parsed result reproduces the stored bytes
 * exactly (doubles are written round-trip-exact — see
 * common/json.hh), which the cache tests assert bit-for-bit. Every
 * entry is written once, atomically, the moment its cell completes,
 * so rerunning a killed sweep against the same directory recomputes
 * only what never finished. A bit flip, a torn file or an entry
 * renamed onto another key fails the container checks and is a
 * miss with a typed reason, never a wrong result and never an error.
 */

#ifndef EXP_CACHE_HH
#define EXP_CACHE_HH

#include <optional>
#include <string>

#include "exp/cell.hh"

namespace graphene {
namespace exp {

/**
 * The simulator code generation the cache trusts. Bump whenever a
 * change alters what any cell computes without changing its spec
 * (scheme logic, harness accounting, stat definitions): every
 * existing cache entry becomes unreachable and the next run
 * recomputes from scratch.
 */
inline constexpr const char *kCodeVersion = "graphene-exp-v1";

/** Conventional cache directory (bench drivers' default). */
inline constexpr const char *kDefaultCacheDir = ".expcache";

class Cache
{
  public:
    /**
     * @param dir cache directory (created on first store).
     * @param version_tag code-generation tag folded into every key.
     */
    explicit Cache(std::string dir,
                   std::string version_tag = kCodeVersion);

    /**
     * Look up @p key. An absent entry is a quiet miss. An entry that
     * fails the container checks, does not parse, or records another
     * cell's fingerprint is a miss too, and @p rejected (when given)
     * receives `<path>: <typed error>`.
     */
    std::optional<CellResult> load(const CellKey &key,
                                   std::string *rejected = nullptr) const;

    /** Store @p result under @p key (atomic tmp-file + rename). */
    void store(const CellKey &key, const CellResult &result) const;

    /** On-disk path of @p key's entry. */
    std::string entryPath(const CellKey &key) const;

    const std::string &dir() const { return _dir; }

  private:
    std::uint64_t addressOf(const CellKey &key) const;

    std::string _dir;
    std::string _versionTag;
};

} // namespace exp
} // namespace graphene

#endif // EXP_CACHE_HH
