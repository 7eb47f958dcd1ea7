#include "common/error.hh"

#include <cstdarg>
#include <cstdio>

#include "common/logging.hh"

namespace graphene {

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Parse:           return "parse";
      case ErrorCode::Config:          return "config";
      case ErrorCode::InvalidArgument: return "invalid-argument";
      case ErrorCode::NotFound:        return "not-found";
      case ErrorCode::Io:              return "io";
      case ErrorCode::Unsupported:     return "unsupported";
      case ErrorCode::Internal:        return "internal";
      case ErrorCode::Timeout:         return "timeout";
      case ErrorCode::CkptTruncated:   return "ckpt-truncated";
      case ErrorCode::CkptBadHeader:   return "ckpt-bad-header";
      case ErrorCode::CkptVersionSkew: return "ckpt-version-skew";
      case ErrorCode::CkptBadPayload:  return "ckpt-bad-payload";
      case ErrorCode::CkptConfigMismatch:
        return "ckpt-config-mismatch";
    }
    return "?";
}

std::string
strprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed));
        // C++11 guarantees contiguous storage; +1 for the NUL that
        // vsnprintf writes past the reported length.
        std::vsnprintf(out.data(), static_cast<std::size_t>(needed) + 1,
                       fmt, args);
    }
    va_end(args);
    return out;
}

std::string
Error::describe() const
{
    std::string out = strprintf("%s error: %s [%s:%u]",
                                errorCodeName(_code), _message.c_str(),
                                _file, _line);
    for (const auto &note : _notes) {
        out += "\n  - ";
        out += note;
    }
    return out;
}

void
exitWithError(const Error &error)
{
    fatal("%s", error.describe().c_str());
}

} // namespace graphene
