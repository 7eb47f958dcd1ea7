/**
 * @file
 * The versioned, fingerprinted checkpoint container format.
 *
 * A checkpoint artifact is a fixed 40-byte header followed by an
 * opaque payload (DESIGN.md §14):
 *
 *   offset  size  field
 *        0     4  magic "GCKP"
 *        4     4  format version (u32, little-endian)
 *        8     8  config fingerprint (exp::Fingerprint digest of the
 *                 producing configuration, passed in as a raw u64 —
 *                 ckpt sits below exp in the layer DAG)
 *       16     8  payload length in bytes
 *       24     8  payload checksum (FNV-1a over the payload)
 *       32     8  header checksum (FNV-1a over bytes 0..31)
 *       40     -  payload (ckpt::Writer stream)
 *
 * decode() validates in a fixed order so every corruption class maps
 * to its own ErrorCode, checked by the corrupt corpus under
 * tests/data/ckpt/:
 *
 *   1. size < 40                     -> CkptTruncated
 *   2. magic mismatch                -> CkptBadHeader
 *   3. header checksum mismatch      -> CkptBadHeader
 *   4. unsupported format version    -> CkptVersionSkew
 *   5. size < 40 + payload length    -> CkptTruncated
 *   6. payload checksum mismatch     -> CkptBadPayload
 *   7. config fingerprint mismatch   -> CkptConfigMismatch
 *
 * Version skew is only diagnosable on an *intact* header (steps 2-3
 * run first); a version-skew corpus file therefore carries a valid,
 * recomputed header checksum so it fails step 4 and nothing else.
 *
 * saveFile() writes atomically: tmp file, fsync, rename — so a crash
 * mid-save leaves either the previous artifact or none, never a torn
 * one. saveRotated()/loadNewest() add the generational protocol of
 * the artifacts rewritten in place (the serve session files): keep
 * the previous file as `.prev`, load the newest valid one.
 */

#ifndef CKPT_CHECKPOINT_HH
#define CKPT_CHECKPOINT_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hh"

namespace graphene {
namespace ckpt {

/** Current container format version (bump on layout changes). */
constexpr std::uint32_t kFormatVersion = 1;

/** Size of the fixed header preceding the payload. */
constexpr std::size_t kHeaderSize = 40;

/** The four magic bytes opening every checkpoint artifact. */
constexpr char kMagic[4] = {'G', 'C', 'K', 'P'};

/** FNV-1a over a byte run (the checksum used throughout). */
std::uint64_t fnv1a(const std::uint8_t *data, std::size_t size);

/** A decoded checkpoint: header fields plus the raw payload. */
struct Blob
{
    std::uint32_t version = kFormatVersion;
    std::uint64_t configFingerprint = 0;
    std::vector<std::uint8_t> payload;
};

/** Frame @p payload into a complete artifact byte string. */
std::vector<std::uint8_t>
encode(std::uint64_t config_fingerprint,
       const std::vector<std::uint8_t> &payload);

/**
 * Validate and unwrap an artifact. With @p expected_config set, a
 * fingerprint mismatch is rejected (CkptConfigMismatch); pass
 * std::nullopt to accept any producer (inspection tools).
 */
Result<Blob> decode(const std::vector<std::uint8_t> &bytes,
                    std::optional<std::uint64_t> expected_config);

/**
 * Write @p bytes to @p path atomically: unique tmp sibling, fsync,
 * rename. On any failure the destination is untouched.
 */
Result<void> atomicWriteFile(const std::string &path,
                             const std::vector<std::uint8_t> &bytes);

/** encode() + atomicWriteFile(). */
Result<void> saveFile(const std::string &path,
                      std::uint64_t config_fingerprint,
                      const std::vector<std::uint8_t> &payload);

/** Slurp @p path (Io error on open/read failure) and decode(). */
Result<Blob> loadFile(const std::string &path,
                      std::optional<std::uint64_t> expected_config);

/**
 * Rotate @p path to `<path>.prev`, then saveFile(). The rotation is
 * best effort: if it fails, the atomic write still leaves one valid
 * artifact, so a crash at any instant leaves a decodable generation.
 */
Result<void> saveRotated(const std::string &path,
                         std::uint64_t config_fingerprint,
                         const std::vector<std::uint8_t> &payload);

/** What loadNewest() found, for the operator-facing resume note. */
struct LoadReport
{
    std::string source;             ///< Accepted file (empty: none).
    std::vector<std::string> notes; ///< "<path>: <typed error>" each.
};

/**
 * Try @p path, then `<path>.prev`, stopping at the first candidate
 * that decodes against @p config_fingerprint (any producer when it is
 * std::nullopt: @p accept then judges the header's fingerprint) and
 * whose blob @p accept takes. An absent candidate leaves no note; a
 * rejected one (by decode() or by @p accept) leaves its typed
 * describe().
 */
LoadReport
loadNewest(const std::string &path,
           std::optional<std::uint64_t> config_fingerprint,
           const std::function<Result<void>(const Blob &)> &accept);

} // namespace ckpt
} // namespace graphene

#endif // CKPT_CHECKPOINT_HH
