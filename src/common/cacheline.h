// Cache-line geometry helpers.
//
// PMEM persistence is cache-line granular: a `clwb`/`clflushopt` writes back
// one 64-byte line, and an `sfence` orders the write-backs. All of DIPPER's
// flush bookkeeping (log record protocol, checkpoint durability pass) works
// in units of these lines.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dstore {

inline constexpr size_t kCacheLineSize = 64;

// Round `x` down/up to a cache-line boundary.
constexpr uintptr_t line_down(uintptr_t x) { return x & ~(uintptr_t)(kCacheLineSize - 1); }
constexpr uintptr_t line_up(uintptr_t x) {
  return (x + kCacheLineSize - 1) & ~(uintptr_t)(kCacheLineSize - 1);
}

// Number of cache lines spanned by [addr, addr+len).
constexpr size_t lines_spanned(uintptr_t addr, size_t len) {
  if (len == 0) return 0;
  return (line_up(addr + len) - line_down(addr)) / kCacheLineSize;
}

constexpr size_t align_up(size_t x, size_t align) { return (x + align - 1) & ~(align - 1); }

}  // namespace dstore
