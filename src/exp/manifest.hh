/**
 * @file
 * The crash-resume manifest: the experiment runner's periodic
 * auto-checkpoint (DESIGN.md §14).
 *
 * A manifest is a checkpoint-format artifact (ckpt::encode — magic,
 * version, fingerprint of the runner's code-version tag, checksums)
 * whose payload maps completed cell fingerprints to their
 * deterministic JSONL record lines. The runner appends every
 * successfully computed cell and persists every --ckpt-every cells;
 * after a crash or SIGKILL, `--resume` loads the latest *valid*
 * manifest and serves the completed cells from it, so the rerun only
 * recomputes what the dead run never finished — and still emits a
 * byte-identical primary artifact, because record lines are pure
 * functions of the cell spec.
 *
 * Durability is ckpt::saveRotated/loadNewest: a crash at any instant
 * leaves a decodable generation, and torn or corrupted files are
 * rejected with typed notes rather than resumed from. Timed-out cells
 * are never recorded — a resume retries them from scratch.
 */

#ifndef EXP_MANIFEST_HH
#define EXP_MANIFEST_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "common/error.hh"
#include "exp/cell.hh"

namespace graphene {
namespace exp {

class Manifest
{
  public:
    /**
     * @param dir directory holding `manifest.gckp` (created on the
     *        first persist).
     * @param version_tag the runner's code-version tag; folded into
     *        the container fingerprint so a manifest from different
     *        code is rejected as CkptConfigMismatch, mirroring the
     *        cache-key rule.
     */
    Manifest(std::string dir, std::string version_tag);

    /** Load the newest valid manifest (`manifest.gckp`, then
     *  `.prev`), replacing any in-memory records. */
    ckpt::LoadReport load();

    /** Number of recorded cells. */
    std::size_t size() const { return _records.size(); }

    /** The recorded result for @p key, if the cell completed. */
    std::optional<CellResult> lookup(const CellKey &key) const;

    /** Record one completed cell (in memory; persist() saves). */
    void record(const CellKey &key, const CellResult &result);

    /** Rotate to `.prev` and atomically write the current records.
     *  (Named persist, not flush, so bare ostream `.flush()` calls
     *  elsewhere don't collide in the result-discard analysis.) */
    Result<void> persist();

    /** `<dir>/manifest.gckp`. */
    static std::string pathFor(const std::string &dir);

  private:
    std::uint64_t configFingerprint() const;

    std::string _dir;
    std::string _versionTag;
    /// Record lines keyed (and serialized sorted) by cell
    /// fingerprint: deterministic bytes for identical completions.
    std::map<std::uint64_t, std::string> _records;
};

} // namespace exp
} // namespace graphene

#endif // EXP_MANIFEST_HH
