// Byte-wise 64-bit FNV-1a: key hashing, zipfian scrambling, shard
// placement and the crash rigs' image fingerprints.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dstore {

inline constexpr uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ull;  // 14695981039346656037
inline constexpr uint64_t kFnvPrime = 0x100000001b3ull;             // 1099511628211

// Folds `n` bytes at `p` into `h` (FNV's offset basis by default).
inline uint64_t fnv1a(const void* p, size_t n, uint64_t h = kFnvOffsetBasis) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (size_t i = 0; i < n; i++) {
    h ^= b[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace dstore
