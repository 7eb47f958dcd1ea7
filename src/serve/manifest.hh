/**
 * @file
 * The serving service's crash-resume manifest (DESIGN.md §15).
 *
 * exp::Manifest records completed *cells*; the serve manifest records
 * *sessions*: every admitted SessionSpec plus its lifecycle state, so
 * a `--resume` restart can rebuild the whole roster — including
 * sessions the original command line never named, such as forked
 * children — without the operator re-deriving anything. Per-session
 * simulation state lives in each session's own `session_<id>.gckp`;
 * the manifest is the directory of who exists, not a second copy of
 * their state.
 *
 * Same container and ckpt::saveRotated/loadNewest durability as
 * exp::Manifest, fingerprinted with a code-version tag (version skew
 * rejects as CkptConfigMismatch). The payload codec is exposed
 * (encodePayload/decodePayload) so the corrupt-corpus generator can
 * build well-formed serve manifests to damage.
 */

#ifndef SERVE_MANIFEST_HH
#define SERVE_MANIFEST_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ckpt/checkpoint.hh"
#include "common/error.hh"
#include "serve/session.hh"

namespace graphene {
namespace serve {

class Manifest
{
  public:
    /** One roster row: spec + lifecycle. */
    struct Entry
    {
        SessionSpec spec;
        Session::State state = Session::State::Fresh;
        /** Full error report when state == Failed. */
        std::string failure;
    };

    /** @param dir directory holding `serve_manifest.gckp`. */
    explicit Manifest(std::string dir);

    /** Load the newest valid manifest (primary, then `.prev`),
     *  replacing any in-memory entries. */
    ckpt::LoadReport load();

    /** Upsert one session's roster row (persist() saves). */
    void record(const Entry &entry);

    /** Roster keyed by session id (sorted — serialization order). */
    const std::map<std::string, Entry> &entries() const
    {
        return _entries;
    }

    /** Rotate to `.prev` and atomically write the current roster. */
    Result<void> persist();

    /** `<dir>/serve_manifest.gckp`. */
    static std::string pathFor(const std::string &dir);

    /** Digest framing every serve manifest (code-version tag). */
    static std::uint64_t configFingerprint();

    /** Payload codec, exposed for the corrupt-corpus generator and
     *  its round-trip tests. Entries encode sorted by id. */
    static std::vector<std::uint8_t>
    encodePayload(const std::vector<Entry> &entries);
    static Result<std::vector<Entry>>
    decodePayload(const std::vector<std::uint8_t> &payload);

  private:
    std::string _dir;
    std::map<std::string, Entry> _entries;
};

} // namespace serve
} // namespace graphene

#endif // SERVE_MANIFEST_HH
