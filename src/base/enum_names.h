// Name ↔ value conversion for the closed enums that users pick by name
// (algorithm, splitter strategy, distribution, scheduling policy).  Each
// enum supplies a `to_string` overload, found by argument-dependent lookup,
// and a constexpr `kAll…` array of its values; these two helpers derive the
// parser and the list of valid names from that pair.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

namespace paladin {

/// The value of `all` whose name is `name`, or nullopt for an unknown name.
template <typename E, std::size_t N>
std::optional<E> parse_enum(const E (&all)[N], std::string_view name) {
  for (const E e : all) {
    if (name == to_string(e)) return e;
  }
  return std::nullopt;
}

/// Comma-separated names of `all`, for --help text and error messages.
template <typename E, std::size_t N>
std::string enum_names(const E (&all)[N]) {
  std::string names;
  for (const E e : all) {
    if (!names.empty()) names += ", ";
    names += to_string(e);
  }
  return names;
}

}  // namespace paladin
