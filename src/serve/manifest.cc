#include "serve/manifest.hh"

#include <filesystem>
#include <utility>

#include "ckpt/checkpoint.hh"
#include "ckpt/io.hh"

namespace graphene {
namespace serve {

namespace fs = std::filesystem;

namespace {

/** Bump when the entry layout changes: old manifests then reject as
 *  CkptConfigMismatch instead of misdecoding. */
constexpr const char *kVersionTag = "graphene-serve-manifest-v1";

} // namespace

Manifest::Manifest(std::string dir) : _dir(std::move(dir)) {}

std::string
Manifest::pathFor(const std::string &dir)
{
    return (fs::path(dir) / "serve_manifest.gckp").string();
}

std::uint64_t
Manifest::configFingerprint()
{
    ckpt::Writer enc;
    enc.str(kVersionTag);
    return ckpt::fnv1a(enc.data().data(), enc.size());
}

std::vector<std::uint8_t>
Manifest::encodePayload(const std::vector<Entry> &entries)
{
    // Serialize sorted by id so identical rosters are identical
    // bytes whatever order sessions were recorded in.
    std::map<std::string, const Entry *> sorted;
    for (const Entry &entry : entries)
        sorted[entry.spec.id] = &entry;
    ckpt::Writer w;
    w.u64(sorted.size());
    for (const auto &[id, entry] : sorted) {
        entry->spec.save(w);
        w.u8(static_cast<std::uint8_t>(entry->state));
        w.str(entry->failure);
    }
    return w.data();
}

Result<std::vector<Manifest::Entry>>
Manifest::decodePayload(const std::vector<std::uint8_t> &payload)
{
    ckpt::Reader r(payload);
    std::vector<Entry> entries;
    const std::uint64_t count = r.count();
    for (std::uint64_t i = 0; i < count && !r.failed(); ++i) {
        Entry entry;
        entry.spec = SessionSpec::load(r);
        // encodePayload() writes ids strictly ascending; a duplicate
        // or out-of-order id is not its output.
        if (!entries.empty() && entry.spec.id <= entries.back().spec.id)
            r.fail();
        const std::uint8_t state = r.u8();
        if (state > static_cast<std::uint8_t>(Session::State::Failed))
            r.fail();
        else
            entry.state = static_cast<Session::State>(state);
        entry.failure = r.str();
        entries.push_back(std::move(entry));
    }
    const Result<void> fin = r.finish();
    if (!fin.ok())
        return fin.error();
    return entries;
}

ckpt::LoadReport
Manifest::load()
{
    _entries.clear();
    return ckpt::loadNewest(
        pathFor(_dir), configFingerprint(),
        [this](const std::vector<std::uint8_t> &payload) {
            Result<std::vector<Entry>> decoded = decodePayload(payload);
            if (!decoded.ok())
                return Result<void>(decoded.error());
            for (Entry &entry : decoded.value())
                _entries[entry.spec.id] = std::move(entry);
            return Result<void>::success();
        });
}

void
Manifest::record(const Entry &entry)
{
    _entries[entry.spec.id] = entry;
}

Result<void>
Manifest::persist()
{
    std::error_code ec;
    fs::create_directories(_dir, ec);
    if (ec)
        return Error(ErrorCode::Io,
                     "serve manifest: cannot create directory '" +
                         _dir + "': " + ec.message());

    std::vector<Entry> entries;
    entries.reserve(_entries.size());
    for (const auto &[id, entry] : _entries)
        entries.push_back(entry);

    return ckpt::saveRotated(pathFor(_dir), configFingerprint(),
                             encodePayload(entries));
}

} // namespace serve
} // namespace graphene
