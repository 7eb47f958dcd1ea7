#include "exp/cache.hh"

#include <filesystem>
#include <utility>

#include "ckpt/checkpoint.hh"
#include "exp/fingerprint.hh"

namespace graphene {
namespace exp {

namespace fs = std::filesystem;

namespace {

/** The record an intact entry holds for @p key, or why it is not. */
Result<CellResult>
readEntry(const std::string &path, std::uint64_t entry_fp,
          const CellKey &key)
{
    const Result<ckpt::Blob> blob = ckpt::loadFile(path, entry_fp);
    if (!blob.ok())
        return blob.error();
    const std::vector<std::uint8_t> &payload = blob.value().payload;
    CellKey stored_key;
    CellResult result;
    if (!parseCellRecordLine(std::string(payload.begin(), payload.end()),
                             stored_key, result))
        return Error(ErrorCode::CkptBadPayload,
                     "cache entry holds no cell record");
    if (stored_key.fingerprint != key.fingerprint)
        return Error(ErrorCode::CkptConfigMismatch,
                     "cache entry records cell " +
                         Fingerprint::hex(stored_key.fingerprint));
    return result;
}

} // namespace

Cache::Cache(std::string dir, std::string version_tag)
    : _dir(std::move(dir)), _versionTag(std::move(version_tag))
{
}

std::uint64_t
Cache::addressOf(const CellKey &key) const
{
    Fingerprint fp;
    fp.field("version", _versionTag);
    fp.field("cell", key.fingerprint);
    return fp.digest();
}

std::string
Cache::entryPath(const CellKey &key) const
{
    return (fs::path(_dir) /
            (Fingerprint::hex(addressOf(key)) + ".gckp"))
        .string();
}

std::optional<CellResult>
Cache::load(const CellKey &key, std::string *rejected) const
{
    const std::string path = entryPath(key);
    std::error_code ec;
    if (!fs::exists(path, ec))
        return std::nullopt;
    Result<CellResult> entry = readEntry(path, addressOf(key), key);
    if (entry.ok())
        return std::move(entry).value();
    if (rejected)
        *rejected = path + ": " + entry.error().describe();
    return std::nullopt;
}

void
Cache::store(const CellKey &key, const CellResult &result) const
{
    std::error_code ec;
    fs::create_directories(_dir, ec);
    if (ec)
        return; // caching is best-effort; the run still has results

    // A checkpoint container written atomically (unique tmp sibling,
    // fsync, rename): a crash leaves the whole entry or none, and
    // the container's checksums catch any later damage. Still
    // best-effort: a failed write just forfeits the cache entry.
    const std::string line = cellRecordLine(key, result);
    const Result<void> written = ckpt::saveFile(
        entryPath(key), addressOf(key),
        std::vector<std::uint8_t>(line.begin(), line.end()));
    if (!written.ok())
        return;
}

} // namespace exp
} // namespace graphene
