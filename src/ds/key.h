// Fixed-width object name key.
//
// DStore log records are "32B plus the object name" (§4.3); bounding names
// at 63 bytes lets a log record fit in two cache lines worst case and one
// line for typical names, and lets btree nodes inline keys with no
// indirection (position independence for free).
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/fnv.h"

namespace dstore {

inline constexpr size_t kMaxNameLen = 63;

struct Key {
  uint8_t len = 0;
  char data[kMaxNameLen] = {};

  static bool fits(std::string_view name) { return name.size() <= kMaxNameLen; }

  static Key from(std::string_view name) {
    Key k;
    k.len = (uint8_t)(name.size() > kMaxNameLen ? kMaxNameLen : name.size());
    std::memcpy(k.data, name.data(), k.len);
    return k;
  }

  std::string_view view() const { return {data, len}; }
  std::string str() const { return std::string(data, len); }
  bool empty() const { return len == 0; }

  int compare(const Key& o) const {
    size_t n = len < o.len ? len : o.len;
    int c = std::memcmp(data, o.data, n);
    if (c != 0) return c;
    return (int)len - (int)o.len;
  }
  bool operator==(const Key& o) const { return compare(o) == 0; }
  bool operator<(const Key& o) const { return compare(o) < 0; }

  // FNV-1a hash of the name (used by the read-count table and sharding).
  uint64_t hash() const { return fnv1a(data, len); }
};

static_assert(sizeof(Key) == 64, "Key must be exactly one cache line");

}  // namespace dstore
