// Text helpers the gwlint passes share: identifier characters and byte
// offset -> line number lookup. Standard library only.
#pragma once

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <string>
#include <vector>

namespace gw::lint {

inline bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Line number (1-based) of byte offset `pos`, via a precomputed table of
// line start offsets.
inline std::vector<std::size_t> line_starts(const std::string& text) {
  std::vector<std::size_t> starts{0};
  for (std::size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\n') starts.push_back(i + 1);
  }
  return starts;
}

inline int line_of(const std::vector<std::size_t>& starts, std::size_t pos) {
  auto it = std::upper_bound(starts.begin(), starts.end(), pos);
  return int(it - starts.begin());
}

}  // namespace gw::lint
