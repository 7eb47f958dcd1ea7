#include "ckpt/checkpoint.hh"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "ckpt/io.hh"

namespace graphene {
namespace ckpt {

std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 1099511628211ULL;
    }
    return h;
}

std::vector<std::uint8_t>
encode(std::uint64_t config_fingerprint,
       const std::vector<std::uint8_t> &payload)
{
    Writer w;
    w.bytes(kMagic, sizeof(kMagic));
    w.u32(kFormatVersion);
    w.u64(config_fingerprint);
    w.u64(payload.size());
    w.u64(fnv1a(payload.data(), payload.size()));
    w.u64(fnv1a(w.data().data(), w.size()));
    Writer out = std::move(w);
    out.bytes(payload.data(), payload.size());
    return out.data();
}

Result<Blob>
decode(const std::vector<std::uint8_t> &bytes,
       std::optional<std::uint64_t> expected_config)
{
    // Ordered validation: each corruption class gets its own typed
    // rejection (see the header-file contract and the corpus tests).
    if (bytes.size() < kHeaderSize)
        return Error(ErrorCode::CkptTruncated,
                     strprintf("checkpoint is %zu byte(s), shorter "
                               "than the %zu-byte header",
                               bytes.size(), kHeaderSize));

    Reader r(bytes.data(), kHeaderSize);
    char magic[4];
    for (char &c : magic)
        c = static_cast<char>(r.u8());
    const std::uint32_t version = r.u32();
    const std::uint64_t config_fp = r.u64();
    const std::uint64_t payload_len = r.u64();
    const std::uint64_t payload_sum = r.u64();
    const std::uint64_t header_sum = r.u64();

    if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
        return Error(ErrorCode::CkptBadHeader,
                     "checkpoint magic mismatch (not a checkpoint, "
                     "or the header was corrupted)");
    if (fnv1a(bytes.data(), kHeaderSize - 8) != header_sum)
        return Error(ErrorCode::CkptBadHeader,
                     "checkpoint header checksum mismatch");
    if (version != kFormatVersion)
        return Error(ErrorCode::CkptVersionSkew,
                     strprintf("checkpoint format version %u, this "
                               "build reads only version %u",
                               version, kFormatVersion));
    if (bytes.size() < kHeaderSize + payload_len)
        return Error(ErrorCode::CkptTruncated,
                     strprintf("checkpoint payload truncated: header "
                               "declares %llu byte(s), file holds "
                               "%zu",
                               static_cast<unsigned long long>(
                                   payload_len),
                               bytes.size() - kHeaderSize));
    if (bytes.size() > kHeaderSize + payload_len)
        return Error(ErrorCode::CkptBadPayload,
                     strprintf("checkpoint has %zu trailing byte(s) "
                               "past the declared payload",
                               bytes.size() - kHeaderSize
                                   - static_cast<std::size_t>(
                                       payload_len)));
    if (fnv1a(bytes.data() + kHeaderSize,
              static_cast<std::size_t>(payload_len))
        != payload_sum)
        return Error(ErrorCode::CkptBadPayload,
                     "checkpoint payload checksum mismatch (bit "
                     "flips or partial write)");
    if (expected_config && config_fp != *expected_config)
        return Error(
            ErrorCode::CkptConfigMismatch,
            strprintf("checkpoint was produced by configuration "
                      "%016llx, expected %016llx",
                      static_cast<unsigned long long>(config_fp),
                      static_cast<unsigned long long>(
                          *expected_config)));

    Blob blob;
    blob.version = version;
    blob.configFingerprint = config_fp;
    blob.payload.assign(bytes.begin()
                            + static_cast<std::ptrdiff_t>(kHeaderSize),
                        bytes.end());
    return blob;
}

Result<void>
atomicWriteFile(const std::string &path,
                const std::vector<std::uint8_t> &bytes)
{
    // Unique tmp sibling (pid-qualified so concurrent writers never
    // share one), fsync, rename: a crash at any point leaves the
    // destination either absent or whole, never torn.
    const std::string tmp =
        strprintf("%s.tmp.%ld", path.c_str(),
                  static_cast<long>(::getpid()));
    const int fd = ::open(tmp.c_str(),
                          O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        return Error(ErrorCode::Io,
                     strprintf("cannot create %s: %s", tmp.c_str(),
                               std::strerror(errno)));

    std::size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            const int err = errno;
            ::close(fd);
            ::unlink(tmp.c_str());
            return Error(ErrorCode::Io,
                         strprintf("short write to %s: %s",
                                   tmp.c_str(), std::strerror(err)));
        }
        off += static_cast<std::size_t>(n);
    }
    if (::fsync(fd) != 0) {
        const int err = errno;
        ::close(fd);
        ::unlink(tmp.c_str());
        return Error(ErrorCode::Io,
                     strprintf("fsync(%s) failed: %s", tmp.c_str(),
                               std::strerror(err)));
    }
    if (::close(fd) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        return Error(ErrorCode::Io,
                     strprintf("close(%s) failed: %s", tmp.c_str(),
                               std::strerror(err)));
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int err = errno;
        ::unlink(tmp.c_str());
        return Error(ErrorCode::Io,
                     strprintf("rename %s -> %s failed: %s",
                               tmp.c_str(), path.c_str(),
                               std::strerror(err)));
    }
    return Result<void>::success();
}

Result<void>
saveFile(const std::string &path, std::uint64_t config_fingerprint,
         const std::vector<std::uint8_t> &payload)
{
    return atomicWriteFile(path, encode(config_fingerprint, payload));
}

Result<Blob>
loadFile(const std::string &path,
         std::optional<std::uint64_t> expected_config)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return Error(ErrorCode::Io,
                     strprintf("cannot open checkpoint %s",
                               path.c_str()));
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    if (in.bad())
        return Error(ErrorCode::Io,
                     strprintf("read failure on checkpoint %s",
                               path.c_str()));
    return decode(bytes, expected_config);
}

Result<void>
saveRotated(const std::string &path, std::uint64_t config_fingerprint,
            const std::vector<std::uint8_t> &payload)
{
    std::error_code ec;
    if (std::filesystem::exists(path, ec))
        std::filesystem::rename(path, path + ".prev", ec);
    return saveFile(path, config_fingerprint, payload);
}

LoadReport
loadNewest(const std::string &path,
           std::optional<std::uint64_t> config_fingerprint,
           const std::function<Result<void>(const Blob &)> &accept)
{
    LoadReport report;
    for (const std::string &candidate : {path, path + ".prev"}) {
        std::error_code ec;
        if (!std::filesystem::exists(candidate, ec))
            continue;
        const Result<Blob> blob = loadFile(candidate, config_fingerprint);
        const Result<void> taken =
            blob.ok() ? accept(blob.value())
                      : Result<void>(blob.error());
        if (taken.ok()) {
            report.source = candidate;
            break;
        }
        report.notes.push_back(candidate + ": " +
                               taken.error().describe());
    }
    return report;
}

} // namespace ckpt
} // namespace graphene
