/* status_codes.h — the single source of truth for DStore error codes.
 *
 * One X-macro table maps every error across the three surfaces that must
 * stay in lockstep:
 *
 *   - `dstore::Code` (C++ Status/Result; generated in common/status.h),
 *   - the C API's `DS_E*` errno-style constants (dstore/dstore_c.h),
 *   - the wire-protocol status byte carried in every response frame
 *     (src/net/wire.h; DESIGN.md §15).
 *
 * Columns: X(CppName, CName, CErrno, WireByte, DisplayName)
 *   CppName     `Code::k<CppName>` enumerator suffix
 *   CName       the C constant (DS_OK / DS_E...)
 *   CErrno      its value: 0 for success, negative otherwise (POSIX-ish)
 *   WireByte    status byte on the wire — ALSO the Code enum's numeric
 *               value, so wire<->Code conversion is a bounds-checked cast.
 *               Append-only: wire bytes are a network contract; never
 *               renumber, never reuse.
 *   DisplayName stable human-readable name (logs, tests, code_name())
 *
 * Everything deriving a mapping from codes must expand this table instead
 * of hand-writing a switch; tools/dstore_lint's status-code rule rejects
 * hand-rolled Code<->DS_E mappings and DS_E* redefinitions outside this
 * file. The header is C-parseable: C++-only helpers live behind
 * #ifdef __cplusplus.
 */
#ifndef DSTORE_COMMON_STATUS_CODES_H_
#define DSTORE_COMMON_STATUS_CODES_H_

/* lint: allow-status-code — this IS the table. */
#define DS_STATUS_CODES(X)                                      \
  X(Ok, DS_OK, 0, 0, "OK")                                      \
  X(NotFound, DS_ENOTFOUND, -1, 1, "NOT_FOUND")                 \
  X(AlreadyExists, DS_EEXIST, -2, 2, "ALREADY_EXISTS")          \
  X(OutOfSpace, DS_ENOSPC, -3, 3, "OUT_OF_SPACE")               \
  X(InvalidArgument, DS_EINVAL, -4, 4, "INVALID_ARGUMENT")      \
  X(Corruption, DS_ECORRUPT, -5, 5, "CORRUPTION")               \
  X(Busy, DS_EBUSY, -6, 6, "BUSY")                              \
  X(IoError, DS_EIO, -7, 7, "IO_ERROR")                         \
  X(Unsupported, DS_ENOTSUP, -8, 8, "UNSUPPORTED")              \
  X(Internal, DS_EINTERNAL, -9, 9, "INTERNAL")                  \
  X(ReadOnly, DS_EROFS, -10, 10, "READ_ONLY")

/* The DS_E* constants themselves (an enum, not #defines, so the values
 * exist in exactly one place and debuggers see the names). DS_EROFS means
 * the store degraded to read-only (SSD write retries exhausted). */
enum {
#define DS_STATUS_X(cpp, cname, cerrno, wire, display) cname = (cerrno),
  DS_STATUS_CODES(DS_STATUS_X)
#undef DS_STATUS_X
};

#ifdef __cplusplus

#include <cstddef>
#include <cstdint>

namespace dstore {
namespace status_codes {

struct Row {
  uint8_t wire;
  int c_errno;
  const char* display;
};

inline constexpr Row kRows[] = {
#define DS_STATUS_X(cpp, cname, cerrno, wire, display) {(uint8_t)(wire), (cerrno), display},
    DS_STATUS_CODES(DS_STATUS_X)
#undef DS_STATUS_X
};

inline constexpr size_t kCount = sizeof(kRows) / sizeof(kRows[0]);

// The table is indexed by wire byte: row i must carry wire byte i. This is
// what makes Code <-> wire a cast and code_name() an array lookup.
inline constexpr bool rows_are_index_ordered() {
  for (size_t i = 0; i < kCount; i++) {
    if (kRows[i].wire != i) return false;
  }
  return true;
}
static_assert(rows_are_index_ordered(),
              "DS_STATUS_CODES wire bytes must be 0..N-1 in table order");
static_assert(kRows[0].c_errno == 0, "success must map to 0");

// Display name / C errno for a wire byte (== Code ordinal). Out-of-range
// bytes — a frame from a newer peer — degrade to INTERNAL rather than UB.
inline constexpr const char* display_of_wire(uint8_t wire) {
  return wire < kCount ? kRows[wire].display : "UNKNOWN";
}
inline constexpr int errno_of_wire(uint8_t wire) {
  return wire < kCount ? kRows[wire].c_errno : DS_EINTERNAL;
}

}  // namespace status_codes
}  // namespace dstore

#endif /* __cplusplus */

#endif /* DSTORE_COMMON_STATUS_CODES_H_ */
