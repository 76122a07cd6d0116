/**
 * @file
 * Typed error handling for untrusted input (dataset files, model
 * checkpoints, CSV).
 *
 * The repo's convention splits failures in two: programming errors
 * panic() and user errors fatal().  Parsers sit in between — a
 * malformed file is an *expected* outcome the caller may want to
 * handle (skip the cache, rebuild the dataset) rather than die on.
 * They return Result<T>: either a value or an adrias::Error carrying a
 * machine-checkable ErrorCode plus a human-readable message.  Legacy
 * throwing wrappers stay available via Result::expect().
 */

#ifndef ADRIAS_COMMON_ERROR_HH
#define ADRIAS_COMMON_ERROR_HH

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

#include "common/logging.hh"

namespace adrias
{

/** What went wrong while consuming untrusted input. */
enum class ErrorCode
{
    Io,            ///< file cannot be opened/read
    BadHeader,     ///< missing/unrecognized magic or version
    Geometry,      ///< shape/count disagrees with the expectation
    Truncated,     ///< input ended before the declared payload
    BadNumber,     ///< numeric field failed strict parsing
    BadToken,      ///< unknown enumeration token
    TrailingData,  ///< extra cells/bytes after the payload
};

/** Stable lower-case name of an ErrorCode ("bad-number", ...). */
[[nodiscard]] std::string errorCodeName(ErrorCode code);

/** A typed failure: code for dispatch, message for humans. */
struct Error
{
    ErrorCode code = ErrorCode::Io;
    std::string message;

    /** "[bad-number] loadScaler: ..." */
    [[nodiscard]] std::string
    toString() const
    {
        // Reserve-and-append, not chained +: GCC 12 cannot bound the
        // temporaries of the chain and warns -Wrestrict in Release.
        const std::string name = errorCodeName(code);
        std::string text;
        text.reserve(name.size() + message.size() + 3);
        text += '[';
        text += name;
        text += "] ";
        text += message;
        return text;
    }
};

/** Shorthand failure constructor. */
[[nodiscard]] inline Error
makeError(ErrorCode code, std::string message)
{
    return Error{code, std::move(message)};
}

/**
 * Either a T or an Error.  Construction is implicit from both sides so
 * parsers read naturally:
 *
 *     Result<double> parse(...) {
 *         if (bad) return makeError(ErrorCode::BadNumber, "...");
 *         return value;
 *     }
 *
 * Accessing the wrong side is a programming error (panics).
 */
template <typename T>
class [[nodiscard]] Result
{
  public:
    Result(T value) : state(std::move(value)) {}
    Result(Error error) : state(std::move(error)) {}

    [[nodiscard]] bool ok() const { return std::holds_alternative<T>(state); }
    explicit operator bool() const { return ok(); }

    [[nodiscard]] const T &
    value() const
    {
        if (!ok())
            panic("Result::value() on error: " + error().toString());
        return std::get<T>(state);
    }

    [[nodiscard]] T &
    value()
    {
        if (!ok())
            panic("Result::value() on error: " + error().toString());
        return std::get<T>(state);
    }

    [[nodiscard]] const Error &
    error() const
    {
        if (ok())
            panic("Result::error() on success");
        return std::get<Error>(state);
    }

    /** Value, or `fallback` when this holds an error. */
    [[nodiscard]] T
    valueOr(T fallback) const
    {
        return ok() ? std::get<T>(state) : std::move(fallback);
    }

    /**
     * Bridge to the throwing convention: the value, or fatal() with
     * the error's message (std::runtime_error).
     */
    [[nodiscard]] const T &
    expect() const
    {
        if (!ok())
            fatal(error().toString());
        return std::get<T>(state);
    }

  private:
    std::variant<T, Error> state;
};

/** Result<void>: success carries nothing, failure carries an Error. */
template <>
class [[nodiscard]] Result<void>
{
  public:
    Result() = default;
    Result(Error error) : failure(std::move(error)) {}

    [[nodiscard]] bool ok() const { return !failure.has_value(); }
    explicit operator bool() const { return ok(); }

    [[nodiscard]] const Error &
    error() const
    {
        if (ok())
            panic("Result::error() on success");
        return *failure;
    }

    /** fatal() with the error's message unless this is a success. */
    void
    expect() const
    {
        if (!ok())
            fatal(error().toString());
    }

  private:
    std::optional<Error> failure;
};

/** Strict non-negative integer parser with overflow detection. */
[[nodiscard]] Result<std::size_t> parseSize(std::string_view text);

} // namespace adrias

#endif // ADRIAS_COMMON_ERROR_HH
