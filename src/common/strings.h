// Small string utilities shared across modules.

#ifndef GCX_COMMON_STRINGS_H_
#define GCX_COMMON_STRINGS_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace gcx {

/// Parses `text` (after trimming XML whitespace) as a double. Only the
/// decimal form counts as a number: optional sign, digits with an optional
/// fraction, optional exponent ("+2", " -3.5 ", "1e3"). Returns nullopt for
/// anything else, including hex, "inf" and "nan".
std::optional<double> ParseNumber(std::string_view text);

/// Removes leading/trailing XML whitespace (space, tab, CR, LF).
std::string_view TrimWhitespace(std::string_view text);

/// True if `text` consists solely of XML whitespace (or is empty).
bool IsAllWhitespace(std::string_view text);

/// Formats a double the way query output needs it: integral values print
/// without a decimal point ("42"), others with up to 6 significant digits.
std::string FormatNumber(double value);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

}  // namespace gcx

#endif  // GCX_COMMON_STRINGS_H_
