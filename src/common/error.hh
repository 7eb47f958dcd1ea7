/**
 * @file
 * Typed, recoverable error propagation for library-level input paths.
 *
 * The error-handling policy (DESIGN.md §9): code that parses or
 * validates *external input* — trace files, configuration structs,
 * scheme specs, profile names — returns a Result<T> carrying a typed
 * Error instead of calling fatal(), so a single bad trace line or
 * config field cannot kill an entire experiment grid. fatal() remains
 * legal only in CLI/bench main() boundaries (enforced by the
 * graphene_analyze `boundary-fatal` rule); *internal* invariants keep
 * using the contract macros / GRAPHENE_CHECK, which panic, because a
 * broken invariant is a bug, not an input.
 *
 * An Error is one failure with a code, a message, the source location
 * that produced it, and an optional list of notes. Validators that
 * check many rules use ErrorCollector to gather *every* violation
 * into a single Error report instead of stopping at the first.
 */

#ifndef COMMON_ERROR_HH
#define COMMON_ERROR_HH

#include <cstdint>
#include <optional>
#include <source_location>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "common/logging.hh"

namespace graphene {

/** Coarse classification of a recoverable failure. */
enum class ErrorCode
{
    Parse,           ///< Malformed external input (trace lines, ...).
    Config,          ///< Inconsistent or out-of-range configuration.
    InvalidArgument, ///< A caller-supplied value outside the domain.
    NotFound,        ///< Lookup of an unknown name or key.
    Io,              ///< Stream or file failure.
    Unsupported,     ///< Valid request this build cannot honour.
    Internal,        ///< Should-not-happen, surfaced without dying.
    Timeout,         ///< Wall-clock budget exceeded (transient).

    // Checkpoint restore rejections (src/ckpt). Each corruption class
    // maps to its own code so callers (and the corrupt-corpus tests)
    // can tell *why* an artifact was refused.
    CkptTruncated,      ///< File shorter than its declared layout.
    CkptBadHeader,      ///< Magic or header checksum mismatch.
    CkptVersionSkew,    ///< Intact header, unsupported format version.
    CkptBadPayload,     ///< Payload checksum mismatch (bit flips).
    CkptConfigMismatch, ///< Valid file for a different configuration.
};

/** Short stable name of @p code ("parse", "config", ...). */
const char *errorCodeName(ErrorCode code);

/** printf-style formatting into a std::string (for error messages). */
std::string strprintf(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * One recoverable failure: code + message + source location, plus
 * optional notes when a validator collected several violations.
 */
class Error
{
  public:
    Error(ErrorCode code, std::string message,
          std::source_location where = std::source_location::current())
        : _code(code), _message(std::move(message)),
          _file(where.file_name()), _line(where.line())
    {
    }

    ErrorCode code() const { return _code; }
    const std::string &message() const { return _message; }
    const char *file() const { return _file; }
    unsigned line() const { return _line; }

    /** Append one detail line (a collected violation). */
    Error &addNote(std::string note)
    {
        _notes.push_back(std::move(note));
        return *this;
    }

    const std::vector<std::string> &notes() const { return _notes; }

    /**
     * Full human-readable report: one header line, then one indented
     * line per note.
     */
    std::string describe() const;

  private:
    ErrorCode _code;
    std::string _message;
    std::vector<std::string> _notes;
    const char *_file;
    unsigned _line;
};

/**
 * The return type of fallible library operations: either a T or an
 * Error. Accessing the wrong alternative is a programming error and
 * panics (it is never a data-dependent path).
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    Result(T value) : _v(std::move(value)) {}
    Result(Error error) : _v(std::move(error)) {}

    bool ok() const { return std::holds_alternative<T>(_v); }
    explicit operator bool() const { return ok(); }

    const T &value() const &
    {
        requireOk();
        return std::get<T>(_v);
    }
    T &value() &
    {
        requireOk();
        return std::get<T>(_v);
    }
    T &&value() &&
    {
        requireOk();
        return std::get<T>(std::move(_v));
    }

    const Error &error() const
    {
        if (ok())
            panic("Result::error() on a success value");
        return std::get<Error>(_v);
    }

    T valueOr(T fallback) const
    {
        return ok() ? std::get<T>(_v) : std::move(fallback);
    }

  private:
    void requireOk() const
    {
        if (!ok())
            panic("Result::value() on an error: %s",
                  std::get<Error>(_v).describe().c_str());
    }

    std::variant<T, Error> _v;
};

/** Result of an operation with no payload (validation passes). */
template <>
class [[nodiscard]] Result<void>
{
  public:
    Result() = default;
    Result(Error error) : _error(std::move(error)) {}

    static Result success() { return Result(); }

    bool ok() const { return !_error.has_value(); }
    explicit operator bool() const { return ok(); }

    const Error &error() const
    {
        if (ok())
            panic("Result::error() on a success value");
        return *_error;
    }

  private:
    std::optional<Error> _error;
};

/**
 * Gathers every violated rule of a validator into one Error, so a
 * user fixing a config sees the full list instead of one failure per
 * run.
 */
class ErrorCollector
{
  public:
    /**
     * @param code classification of the aggregate error.
     * @param context what was being validated ("graphene config").
     */
    ErrorCollector(ErrorCode code, std::string context)
        : _code(code), _context(std::move(context))
    {
    }

    /** Record one violated rule. */
    void add(std::string violation)
    {
        _violations.push_back(std::move(violation));
    }

    bool empty() const { return _violations.empty(); }
    std::size_t count() const { return _violations.size(); }

    /**
     * Ok when nothing was collected; otherwise one Error whose notes
     * list every violation.
     */
    Result<void> finish(std::source_location where =
                            std::source_location::current()) const
    {
        if (_violations.empty())
            return Result<void>::success();
        Error error(_code,
                    strprintf("%s: %zu rule(s) violated",
                              _context.c_str(), _violations.size()),
                    where);
        for (const auto &v : _violations)
            error.addNote(v);
        return error;
    }

  private:
    ErrorCode _code;
    std::string _context;
    std::vector<std::string> _violations;
};

/**
 * Boundary helper for main()-level code: unwrap a Result or exit via
 * fatal() with the full report. Library code must propagate instead.
 */
[[noreturn]] void exitWithError(const Error &error);

template <typename T>
T
unwrapOrFatal(Result<T> result)
{
    if (!result.ok())
        exitWithError(result.error());
    return std::move(result).value();
}

inline void
unwrapOrFatal(Result<void> result)
{
    if (!result.ok())
        exitWithError(result.error());
}

} // namespace graphene

#endif // COMMON_ERROR_HH
