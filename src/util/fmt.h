// Small string-building helpers (GCC 12 lacks <format>).
#pragma once

#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace discs {

namespace detail {

/// Integers that an ostream renders as decimal digits: every integral type
/// except bool (rendered 1/0) and the character types (rendered as a
/// character; int8_t/uint8_t are signed/unsigned char).
template <class T>
inline constexpr bool kDecimal =
    std::is_integral_v<T> && !std::is_same_v<T, bool> &&
    !std::is_same_v<T, char> && !std::is_same_v<T, signed char> &&
    !std::is_same_v<T, unsigned char> && !std::is_same_v<T, wchar_t> &&
    !std::is_same_v<T, char8_t> && !std::is_same_v<T, char16_t> &&
    !std::is_same_v<T, char32_t>;

/// Appends `v` exactly as `std::ostream << v` renders it with default
/// formatting.  Strings, chars and decimal integers are appended directly;
/// every other type goes through a stream, so its bytes stay the stream's.
template <class T>
void append(std::string& out, const T& v) {
  if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out += std::string_view(v);
  } else if constexpr (std::is_same_v<T, char>) {
    out += v;
  } else if constexpr (kDecimal<T>) {
    char buf[24];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, end);
  } else {
    std::ostringstream os;
    os << v;
    out += os.str();
  }
}

}  // namespace detail

/// Concatenates any streamable arguments into a string.
template <class... Args>
std::string cat(const Args&... args) {
  std::string out;
  (detail::append(out, args), ...);
  return out;
}

/// Joins container elements (rendered via `render`) with a separator.
template <class Container, class Render>
std::string join(const Container& c, const std::string& sep, Render render) {
  std::string out;
  bool first = true;
  for (const auto& e : c) {
    if (!first) out += sep;
    first = false;
    detail::append(out, render(e));
  }
  return out;
}

/// Joins streamable container elements with a separator.
template <class Container>
std::string join(const Container& c, const std::string& sep) {
  return join(c, sep, [](const auto& e) { return e; });
}

/// Left-pads/truncates a string into a fixed-width column.
std::string pad(const std::string& s, std::size_t width);

/// Renders a double with the given precision.
std::string fixed(double v, int precision);

/// Renders a simple aligned ASCII table: rows[0] may be a header.
std::string ascii_table(const std::vector<std::vector<std::string>>& rows,
                        bool header = true);

}  // namespace discs
