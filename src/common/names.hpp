// Generated signal, bus and plan names ("inner0_reg", "s1_7", "G7").
//
// Every name the library synthesizes from a stem and an index goes through
// make_name, which appends each part to one string and formats integers
// with std::to_chars. Building names as `"x" + std::to_string(n)` instead
// inserts into the front of a temporary, and gcc 12 at -O3 reports that
// inlined memcpy as a -Wrestrict false positive, which the libraries'
// -Werror turns into a build failure.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>

namespace sca::common {

namespace detail {

inline void append_name_part(std::string& out, std::string_view part) {
  out.append(part);
}

template <std::integral T>
  requires(!std::same_as<T, bool> && !std::same_as<T, char>)
void append_name_part(std::string& out, T value) {
  char digits[24];
  const auto result = std::to_chars(digits, digits + sizeof(digits), value);
  out.append(digits, static_cast<std::size_t>(result.ptr - digits));
}

}  // namespace detail

/// Concatenates the parts in order, integers in decimal:
/// make_name("cross", 0, 1, "_reg") == "cross01_reg".
template <typename... Parts>
std::string make_name(const Parts&... parts) {
  std::string out;
  (detail::append_name_part(out, parts), ...);
  return out;
}

}  // namespace sca::common
