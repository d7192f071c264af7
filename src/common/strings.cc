#include "common/strings.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/status.h"
#include "xml/simd_scan.h"

namespace gcx {

namespace {
bool IsXmlSpace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}
}  // namespace

std::string_view TrimWhitespace(std::string_view text) {
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && IsXmlSpace(text[begin])) ++begin;
  while (end > begin && IsXmlSpace(text[end - 1])) --end;
  return text.substr(begin, end - begin);
}

bool IsAllWhitespace(std::string_view text) {
  const SimdScanOps& ops = DispatchedScanOps();
  return ops.find_non_space(text.data(), text.size()) == text.size();
}

namespace {
/// True if `text` is a decimal number: optional sign, digits with an
/// optional fraction (at least one digit overall), optional exponent.
/// strtod's other forms (hex, inf, nan) are deliberately not numbers.
bool IsDecimalNumber(std::string_view text) {
  size_t i = 0;
  auto skip_sign = [&] {
    if (i < text.size() && (text[i] == '+' || text[i] == '-')) ++i;
  };
  auto skip_digits = [&] {
    size_t start = i;
    while (i < text.size() && text[i] >= '0' && text[i] <= '9') ++i;
    return i - start;
  };
  skip_sign();
  size_t digits = skip_digits();
  if (i < text.size() && text[i] == '.') {
    ++i;
    digits += skip_digits();
  }
  if (digits == 0) return false;
  if (i < text.size() && (text[i] == 'e' || text[i] == 'E')) {
    ++i;
    skip_sign();
    if (skip_digits() == 0) return false;
  }
  return i == text.size();
}
}  // namespace

std::optional<double> ParseNumber(std::string_view text) {
  std::string_view trimmed = TrimWhitespace(text);
  if (!IsDecimalNumber(trimmed)) return std::nullopt;
  // from_chars rejects a leading '+'; the grammar check above has already
  // ruled out everything else it would accept beyond the decimal form.
  if (trimmed.front() == '+') trimmed.remove_prefix(1);
  double value = 0;
  auto [end, ec] =
      std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), value);
  if (ec == std::errc::result_out_of_range) {
    // Overflow/underflow: keep strtod's rounding to +-HUGE_VAL or zero.
    return std::strtod(std::string(trimmed).c_str(), nullptr);
  }
  GCX_CHECK(ec == std::errc() && end == trimmed.data() + trimmed.size());
  return value;
}

std::string FormatNumber(double value) {
  // XPath 1.0 renderings for the non-finite values sum() can produce; the
  // long long cast below would be undefined behavior for them.
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "Infinity" : "-Infinity";
  // The cast is only defined inside the long long range: [-2^63, 2^63).
  // Both bounds are exactly representable as doubles (the upper one
  // exclusively — the largest double below 2^63 converts fine).
  if (value >= -9223372036854775808.0 && value < 9223372036854775808.0) {
    long long integral = static_cast<long long>(value);
    if (static_cast<double>(integral) == value) {
      return std::to_string(integral);
    }
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", value);
  return buf;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

}  // namespace gcx
