#include "exp/manifest.hh"

#include <filesystem>
#include <utility>

#include "ckpt/checkpoint.hh"
#include "ckpt/io.hh"
#include "exp/fingerprint.hh"

namespace graphene {
namespace exp {

namespace fs = std::filesystem;

Manifest::Manifest(std::string dir, std::string version_tag)
    : _dir(std::move(dir)), _versionTag(std::move(version_tag))
{
}

std::string
Manifest::pathFor(const std::string &dir)
{
    return (fs::path(dir) / "manifest.gckp").string();
}

std::uint64_t
Manifest::configFingerprint() const
{
    Fingerprint fp;
    fp.field("manifest-version-tag", _versionTag);
    return fp.digest();
}

ckpt::LoadReport
Manifest::load()
{
    _records.clear();
    return ckpt::loadNewest(
        pathFor(_dir), configFingerprint(),
        [this](const std::vector<std::uint8_t> &payload) {
            ckpt::Reader r(payload);
            std::map<std::uint64_t, std::string> records;
            const std::uint64_t count = r.count();
            for (std::uint64_t i = 0; i < count && !r.failed(); ++i) {
                // persist() writes fingerprints strictly ascending;
                // a duplicate or out-of-order one is not its output.
                const std::uint64_t fp = r.u64();
                if (!records.empty() && fp <= records.rbegin()->first)
                    r.fail();
                records.emplace_hint(records.end(), fp, r.str());
            }
            const Result<void> fin = r.finish();
            if (fin.ok())
                _records = std::move(records);
            return fin;
        });
}

std::optional<CellResult>
Manifest::lookup(const CellKey &key) const
{
    const auto it = _records.find(key.fingerprint);
    if (it == _records.end())
        return std::nullopt;
    CellKey stored_key;
    CellResult result;
    if (!parseCellRecordLine(it->second, stored_key, result))
        return std::nullopt; // unparseable record: recompute
    if (stored_key.fingerprint != key.fingerprint)
        return std::nullopt;
    return result;
}

void
Manifest::record(const CellKey &key, const CellResult &result)
{
    _records[key.fingerprint] = cellRecordLine(key, result);
}

Result<void>
Manifest::persist()
{
    std::error_code ec;
    fs::create_directories(_dir, ec);
    if (ec)
        return Error(ErrorCode::Io,
                     "manifest: cannot create directory '" + _dir +
                         "': " + ec.message());

    ckpt::Writer w;
    w.u64(_records.size());
    for (const auto &[fp, line] : _records) {
        w.u64(fp);
        w.str(line);
    }

    return ckpt::saveRotated(pathFor(_dir), configFingerprint(),
                             w.data());
}

} // namespace exp
} // namespace graphene
