// CRC32C (Castagnoli) — the end-to-end integrity checksum.
//
// Every persistence tier carries one: DIPPER log slots, metadata-zone
// entries, the block device's per-4KB-page sidecar, and each object's
// whole-content CRC. The Castagnoli polynomial was chosen (over CRC32/ISO)
// because x86 has carried a dedicated instruction for it since SSE4.2.
//
// Kernels. Short inputs (log records, metadata entries) run one dependent
// `crc32q` chain. From kFoldMin bytes up a carry-less-multiply fold runs
// instead (the Intel "Fast CRC Computation Using PCLMULQDQ" scheme): four
// accumulators each hold a 128-bit slice of the message per lane, and one
// step multiplies an accumulator's two 64-bit halves by x^(L±32) mod P and
// XORs in the slice L bits further on, which keeps the message's value
// mod P while moving it forward. The fold is written once, over its lane
// width: 512-bit VPCLMULQDQ where the CPU has it, 128-bit PCLMULQDQ on
// every other x86-64; CPUID alone picks it. The folded 128-bit remainder
// is finished by two `crc32q`, the < 16 B tail by the serial chain.
// Measured (micro_primitives BM_Crc32c, medians of 5 runs, 4-vCPU Xeon
// with AVX-512 and VPCLMULQDQ, GCC 12), the 3-way interleaved `crc32q`
// kernel this replaced → the 512-bit fold: 4 KB 211 → 59 ns, 16 KB 936 →
// 226 ns (17 → 67 GB/s); 1 KB (the serial chain before) 139 → 20 ns; 64 B
// stays on the serial chain (~13 ns). The 128-bit fold, called directly
// on the same host, runs 4 KB in 262 ns and 16 KB in 1.06 µs against the
// 3-way kernel's 285 ns and 1.28 µs in the same process. At 128 B either
// fold beats the serial chain (13 against 17 ns), which sets kFoldMin.
// The 256-bit VPCLMULQDQ width was measured too and left out: kv-read get
// p50 fell 4.4% with it and 6.0% with 512 bits, and neither moved put p50
// on kv-update or served.
// The slice-by-8 software fallback runs at ~1 GB/s.
//
// Seeding: checksums are *location-seeded* (slot index, entry index,
// absolute page number) so a structurally valid record or page read from
// the WRONG location fails verification — this is what catches misdirected
// writes, which plain content checksums cannot (the misplaced bytes are
// internally consistent).
//
// Composition: crc32c_compose_pages turns the location-seeded CRCs of a
// value's 4 KB pages, crc32c(page_i, 4096, page_no_i), into the value's
// own crc32c(value, n) without touching its bytes — a read whose device
// verified every page against its sidecar hands back those CRCs, so the
// whole-object check costs no second pass over the data. CRC is linear:
// with R(s, D) the raw register after data D from state s and S_p =
// crc32c_extend_u64(~0, p), a page's CRC c_p = ~(shift4k(S_p) ⊕ R(0, page))
// gives R(0, page) = ~c_p ⊕ shift4k(S_p), and the value's register folds
// page by page as r ← shift4k(r ⊕ S_p) ⊕ ~c_p from r = S_0. Per page that
// is one `crc32q` (S_p) and one multiply by x^32768 mod P through four
// byte-indexed tables built at compile time from xpow_mod: micro_primitives
// BM_Crc32cComposePages composes 4 pages in ~12 ns where BM_Crc32c hashes
// the same 16 KB in ~180 ns (4-vCPU Xeon, 512-bit fold, GCC 12). A stored
// CRC of 1 may be a remapped 0 (see crc32c()), and 0 means "no CRC", so a
// page CRC of 0 or 1 cannot be composed: the caller hashes the bytes.
#pragma once

#include <cstddef>
#include <cstdint>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <immintrin.h>
#endif

namespace dstore {

namespace crc32c_detail {

// Slice-by-8 tables for the reflected Castagnoli polynomial 0x82F63B78.
struct Tables {
  uint32_t t[8][256];
};

inline const Tables& tables() {
  static const Tables tbl = [] {
    Tables out;
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = i;
      for (int k = 0; k < 8; k++) c = (c & 1) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      out.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; i++) {
      uint32_t c = out.t[0][i];
      for (int s = 1; s < 8; s++) {
        c = out.t[0][c & 0xff] ^ (c >> 8);
        out.t[s][i] = c;
      }
    }
    return out;
  }();
  return tbl;
}

inline uint32_t extend_sw(uint32_t crc, const void* data, size_t n) {
  const Tables& tbl = tables();
  const auto* p = static_cast<const unsigned char*>(data);
  while (n >= 8) {
    uint64_t w;
    __builtin_memcpy(&w, p, 8);
    w ^= crc;
    crc = tbl.t[7][w & 0xff] ^ tbl.t[6][(w >> 8) & 0xff] ^ tbl.t[5][(w >> 16) & 0xff] ^
          tbl.t[4][(w >> 24) & 0xff] ^ tbl.t[3][(w >> 32) & 0xff] ^
          tbl.t[2][(w >> 40) & 0xff] ^ tbl.t[1][(w >> 48) & 0xff] ^ tbl.t[0][w >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) crc = tbl.t[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  return crc;
}

// x^n mod P, bit-reflected (bit 31 holds x^0), as the CRC register holds it.
constexpr uint32_t xpow_mod(uint64_t n) {
  uint32_t r = 0x80000000u;
  for (; n != 0; n--) r = (r & 1) ? (r >> 1) ^ 0x82F63B78u : r >> 1;
  return r;
}

// The multipliers that move a 128-bit slice L bits forward. In the reflected
// layout the slice's first 8 bytes (the low qword) are its high-degree half:
// it moves by x^(L+64), the other half by x^L. A reflected 64×32-bit
// carry-less product lands one bit low and the constant sits at degree 32,
// so each is x^(L±32) mod P shifted left by one.
struct FoldConst {
  uint64_t lo, hi;
};

constexpr FoldConst fold_by(uint64_t bits) {
  return {uint64_t{xpow_mod(bits + 32)} << 1, uint64_t{xpow_mod(bits - 32)} << 1};
}

// Inputs this long and longer take the fold; shorter ones the serial chain.
inline constexpr size_t kFoldMin = 128;

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
// The single dependent chain: the whole of a short input, and the < 16 B
// tail of a folded one.
__attribute__((target("sse4.2"))) inline uint32_t extend_hw_serial(uint32_t crc,
                                                                   const unsigned char* p,
                                                                   size_t n) {
  uint64_t c = crc;
  while (n >= 8) {
    uint64_t w;
    __builtin_memcpy(&w, p, 8);
    c = __builtin_ia32_crc32di(c, w);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(c);
  while (n-- > 0) crc = __builtin_ia32_crc32qi(crc, *p++);
  return crc;
}

// Lane types for fold(). Every helper carries its width's target, so an
// intrinsic never runs outside the ISA it needs; vectors cross helper
// boundaries by reference, so no wide vector is passed by value between
// functions of different targets (-Wpsabi). The entry points are flattened,
// which inlines fold() and every helper into one function of that target.
#define DSTORE_CRC_XMM __attribute__((target("sse4.2,pclmul")))
#define DSTORE_CRC_ZMM __attribute__((target("sse4.2,pclmul,avx512f,avx512vl,vpclmulqdq")))

struct Xmm {
  using Vec = __m128i;
  static constexpr size_t kLanes = 1;
  DSTORE_CRC_XMM static void load(Vec& v, const unsigned char* p) {
    v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  DSTORE_CRC_XMM static void splat(Vec& k, FoldConst c) {
    k = _mm_set_epi64x(static_cast<long long>(c.hi), static_cast<long long>(c.lo));
  }
  DSTORE_CRC_XMM static void xor_state(Vec& v, uint32_t crc) {
    v = _mm_xor_si128(v, _mm_cvtsi32_si128(static_cast<int>(crc)));
  }
  // v = v.lo·k.lo ⊕ v.hi·k.hi ⊕ next, per 128-bit lane.
  DSTORE_CRC_XMM static void fold(Vec& v, const Vec& k, const Vec& next) {
    v = _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(v, k, 0x00),
                                    _mm_clmulepi64_si128(v, k, 0x11)),
                      next);
  }
  DSTORE_CRC_XMM static void lanes(const Vec& v, __m128i* out) {
    _mm_storeu_si128(out, v);
  }
  // Two crc32q over the last 128-bit accumulator: its CRC from state 0.
  DSTORE_CRC_XMM static uint32_t finish(const Vec& v) {
    uint64_t c = __builtin_ia32_crc32di(0, static_cast<uint64_t>(_mm_cvtsi128_si64(v)));
    c = __builtin_ia32_crc32di(c, static_cast<uint64_t>(_mm_extract_epi64(v, 1)));
    return static_cast<uint32_t>(c);
  }
};

struct Zmm {
  using Vec = __m512i;
  static constexpr size_t kLanes = 4;
  DSTORE_CRC_ZMM static void load(Vec& v, const unsigned char* p) {
    v = _mm512_loadu_si512(p);
  }
  DSTORE_CRC_ZMM static void splat(Vec& k, FoldConst c) {
    const auto lo = static_cast<long long>(c.lo), hi = static_cast<long long>(c.hi);
    k = _mm512_set4_epi64(hi, lo, hi, lo);
  }
  DSTORE_CRC_ZMM static void xor_state(Vec& v, uint32_t crc) {
    v = _mm512_xor_si512(v, _mm512_zextsi128_si512(_mm_cvtsi32_si128(static_cast<int>(crc))));
  }
  DSTORE_CRC_ZMM static void fold(Vec& v, const Vec& k, const Vec& next) {
    v = _mm512_ternarylogic_epi64(_mm512_clmulepi64_epi128(v, k, 0x00),
                                  _mm512_clmulepi64_epi128(v, k, 0x11), next, 0x96);
  }
  DSTORE_CRC_ZMM static void lanes(const Vec& v, __m128i* out) {
    _mm512_storeu_si512(out, v);
  }
};

// The fold over any n: four V accumulators while 4 vectors remain, one
// while a vector remains, then its lanes in order into one 128-bit
// accumulator, 16 B steps, and the serial tail.
template <class V>
inline uint32_t fold(uint32_t crc, const unsigned char* p, size_t n) {
  constexpr size_t kVec = 16 * V::kLanes;
  constexpr FoldConst kBy4Vec = fold_by(4 * kVec * 8);
  constexpr FoldConst kByVec = fold_by(kVec * 8);
  constexpr FoldConst kBy16 = fold_by(128);
  if (n < 16) return extend_hw_serial(crc, p, n);
  Xmm::Vec a{}, k128{}, next16{};
  Xmm::splat(k128, kBy16);
  if (n >= kVec) {
    typename V::Vec x0{}, k{}, next{};
    V::load(x0, p);
    V::xor_state(x0, crc);
    if (n >= 4 * kVec) {
      typename V::Vec x1{}, x2{}, x3{};
      V::load(x1, p + kVec);
      V::load(x2, p + 2 * kVec);
      V::load(x3, p + 3 * kVec);
      V::splat(k, kBy4Vec);
      for (p += 4 * kVec, n -= 4 * kVec; n >= 4 * kVec; p += 4 * kVec, n -= 4 * kVec) {
        V::load(next, p);
        V::fold(x0, k, next);
        V::load(next, p + kVec);
        V::fold(x1, k, next);
        V::load(next, p + 2 * kVec);
        V::fold(x2, k, next);
        V::load(next, p + 3 * kVec);
        V::fold(x3, k, next);
      }
      V::splat(k, kByVec);
      V::fold(x0, k, x1);
      V::fold(x0, k, x2);
      V::fold(x0, k, x3);
    } else {
      p += kVec;
      n -= kVec;
      V::splat(k, kByVec);
    }
    for (; n >= kVec; p += kVec, n -= kVec) {
      V::load(next, p);
      V::fold(x0, k, next);
    }
    __m128i lane[V::kLanes] = {};
    V::lanes(x0, lane);
    a = lane[0];
    for (size_t i = 1; i < V::kLanes; i++) Xmm::fold(a, k128, lane[i]);
  } else {
    Xmm::load(a, p);
    Xmm::xor_state(a, crc);
    p += 16;
    n -= 16;
  }
  for (; n >= 16; p += 16, n -= 16) {
    Xmm::load(next16, p);
    Xmm::fold(a, k128, next16);
  }
  return extend_hw_serial(Xmm::finish(a), p, n);
}

// The kernels, callable on their own (the tests run each against slice-by-8).
DSTORE_CRC_XMM __attribute__((noinline, flatten)) inline uint32_t extend_fold_xmm(
    uint32_t crc, const unsigned char* p, size_t n) {
  return fold<Xmm>(crc, p, n);
}

DSTORE_CRC_ZMM __attribute__((noinline, flatten)) inline uint32_t extend_fold_zmm(
    uint32_t crc, const unsigned char* p, size_t n) {
  return fold<Zmm>(crc, p, n);
}

#undef DSTORE_CRC_XMM
#undef DSTORE_CRC_ZMM

inline bool have_hw_crc() {
  static const bool ok = __builtin_cpu_supports("sse4.2");
  return ok;
}

inline bool have_pclmul() {
  static const bool ok = have_hw_crc() && __builtin_cpu_supports("pclmul");
  return ok;
}

inline bool have_vpclmul() {
  static const bool ok = have_pclmul() && __builtin_cpu_supports("vpclmulqdq") &&
                         __builtin_cpu_supports("avx512f") &&
                         __builtin_cpu_supports("avx512vl");
  return ok;
}

using FoldKernel = uint32_t (*)(uint32_t, const unsigned char*, size_t);

// The fold the CPU runs: the widest it has, or none (serial chain only).
// An unoptimised build runs none: there every by-reference vector helper
// round-trips through memory, and the fold loses to the serial chain
// (`g++ -O0`, 4-vCPU Xeon with AVX-512, best of 5: 128 B 445–527 ns
// folded against 41–50 ns serial, 4 KB 0.97–1.16 µs against 0.61–0.81 µs).
inline FoldKernel fold_kernel() {
#if defined(__OPTIMIZE__)
  static const FoldKernel k = have_vpclmul() ? extend_fold_zmm
                              : have_pclmul() ? extend_fold_xmm
                                              : nullptr;
  return k;
#else
  return nullptr;
#endif
}

__attribute__((target("sse4.2"))) inline uint32_t extend_hw(uint32_t crc, const void* data,
                                                            size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  if (__builtin_expect(n >= kFoldMin, 0)) {
    if (FoldKernel k = fold_kernel()) return k(crc, p, n);
  }
  return extend_hw_serial(crc, p, n);
}

// One 8-byte word: the location seeds and record fields hashed field by field.
__attribute__((target("sse4.2"))) inline uint32_t extend_hw_u64(uint32_t crc, uint64_t v) {
  return static_cast<uint32_t>(__builtin_ia32_crc32di(crc, v));
}
#else
inline bool have_hw_crc() { return false; }
inline bool have_pclmul() { return false; }
inline bool have_vpclmul() { return false; }
inline uint32_t extend_hw(uint32_t crc, const void* data, size_t n) {
  return extend_sw(crc, data, n);
}
inline uint32_t extend_hw_u64(uint32_t crc, uint64_t v) { return extend_sw(crc, &v, sizeof(v)); }
#endif

// What crc32c_extend runs on inputs of kFoldMin bytes and up.
inline const char* kernel_name() {
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
  if (fold_kernel() == extend_fold_zmm) return "vpclmulqdq-512 fold";
  if (fold_kernel() == extend_fold_xmm) return "pclmulqdq-128 fold";
#endif
  if (have_hw_crc()) return "sse4.2 crc32q chain";
  return "slice-by-8";
}

}  // namespace crc32c_detail

// Raw extension: feed `n` bytes into a running (non-inverted) CRC state.
// Compose location seeds and data by chaining calls; finish with the
// final xor crc32c() applies (a plain xor keeps composition associative).
inline uint32_t crc32c_extend(uint32_t crc, const void* data, size_t n) {
  return crc32c_detail::have_hw_crc() ? crc32c_detail::extend_hw(crc, data, n)
                                      : crc32c_detail::extend_sw(crc, data, n);
}

inline uint32_t crc32c_extend_u64(uint32_t crc, uint64_t v) {
  return crc32c_detail::have_hw_crc() ? crc32c_detail::extend_hw_u64(crc, v)
                                      : crc32c_detail::extend_sw(crc, &v, sizeof(v));
}

// One-shot checksum of a buffer with an optional integer location seed.
// Never returns 0 for convenience of "0 = no checksum recorded" sidecars:
// a computed 0 is mapped to 1 (one extra collision in 2^32, irrelevant for
// corruption detection).
inline uint32_t crc32c(const void* data, size_t n, uint64_t seed = 0) {
  uint32_t crc = 0xffffffffu;
  crc = crc32c_extend_u64(crc, seed);
  crc = crc32c_extend(crc, data, n);
  crc ^= 0xffffffffu;
  return crc == 0 ? 1u : crc;
}

// The page size crc32c_compose_pages chains.
inline constexpr size_t kCrc32cComposePage = 4096;

namespace crc32c_detail {

// Multiplication of a raw register by x^bits mod P, one table per register
// byte (the map is linear over GF(2)). Register bit k holds x^(31-k), which
// `bits` zero bits carry to x^(31-k+bits).
struct ShiftTable {
  uint32_t t[4][256];
};

constexpr ShiftTable make_shift_table(uint64_t bits) {
  uint32_t moved[32] = {};
  uint32_t r = xpow_mod(bits);  // bit 31 (x^0) moved
  for (int k = 31; k >= 0; k--) {
    moved[k] = r;
    r = (r & 1) ? (r >> 1) ^ 0x82F63B78u : r >> 1;
  }
  ShiftTable out{};
  for (int j = 0; j < 4; j++) {
    for (uint32_t b = 0; b < 256; b++) {
      uint32_t v = 0;
      for (int i = 0; i < 8; i++) {
        if ((b >> i) & 1) v ^= moved[8 * j + i];
      }
      out.t[j][b] = v;
    }
  }
  return out;
}

inline constexpr ShiftTable kShiftPage = make_shift_table(8 * kCrc32cComposePage);

inline uint32_t shift_page(uint32_t r) {
  return kShiftPage.t[0][r & 0xff] ^ kShiftPage.t[1][(r >> 8) & 0xff] ^
         kShiftPage.t[2][(r >> 16) & 0xff] ^ kShiftPage.t[3][r >> 24];
}

}  // namespace crc32c_detail

// crc32c(value, n_pages * 4096) of a value whose page i a device verified as
// crcs[i] == crc32c(page_i, 4096, page_no(i)), composed without the bytes
// (see the header comment). Returns 0 when a page CRC is unusable: 0 (no
// CRC) or 1 (possibly a remapped 0).
template <class PageNo>
inline uint32_t crc32c_compose_pages(const uint32_t* crcs, size_t n_pages, PageNo&& page_no) {
  uint32_t r = crc32c_extend_u64(0xffffffffu, 0);
  for (size_t i = 0; i < n_pages; i++) {
    if (crcs[i] <= 1) return 0;
    r = crc32c_detail::shift_page(r ^ crc32c_extend_u64(0xffffffffu, page_no(i))) ^ ~crcs[i];
  }
  r ^= 0xffffffffu;
  return r == 0 ? 1u : r;
}

}  // namespace dstore
