#include "common/error.hh"

#include <charconv>

namespace adrias
{

std::string
errorCodeName(ErrorCode code)
{
    switch (code) {
      case ErrorCode::Io:
        return "io";
      case ErrorCode::BadHeader:
        return "bad-header";
      case ErrorCode::Geometry:
        return "geometry";
      case ErrorCode::Truncated:
        return "truncated";
      case ErrorCode::BadNumber:
        return "bad-number";
      case ErrorCode::BadToken:
        return "bad-token";
      case ErrorCode::TrailingData:
        return "trailing-data";
    }
    panic("unknown ErrorCode");
}

Result<std::size_t>
parseSize(std::string_view text)
{
    if (text.empty())
        return makeError(ErrorCode::BadNumber, "empty integer field");
    std::size_t value = 0;
    const char *begin = text.data();
    const char *end = begin + text.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec == std::errc::result_out_of_range)
        return makeError(ErrorCode::BadNumber,
                         "integer out of range: '" + std::string(text) +
                             "'");
    if (ec != std::errc{} || ptr != end)
        return makeError(ErrorCode::BadNumber,
                         "malformed integer: '" + std::string(text) +
                             "'");
    return value;
}

} // namespace adrias
