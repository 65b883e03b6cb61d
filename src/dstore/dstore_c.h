/* dstore_c.h — C bindings for DStore.
 *
 * Handle-based sessions and namespaces. ds_session_open() is ONE surface
 * for embedded and remote stores — the target string picks the transport:
 *
 *     ds_session_t* s = ds_session_open("mem:", NULL);          // embedded, RAM
 *     ds_session_t* s = ds_session_open("dir:/var/db", &opt);   // embedded, files
 *     ds_session_t* s = ds_session_open("127.0.0.1:7411", NULL);// remote (dstore_serverd)
 *     ds_namespace_t* ns = ds_namespace_open(s, "tenant-a");
 *     ssize_t n = ds_put(ns, "key", buf, len);
 *
 * A namespace is a tenant: its keys, objects and locks are isolated from
 * every other namespace (remotely it maps onto one ShardedStore shard;
 * DESIGN.md §15). The paper's Table-2 calls map onto namespaces: key-value
 * ds_put/ds_get/ds_delete, filesystem-style ds_object_*, and ds_lock/
 * ds_unlock. Errors are per-session: ds_session_last_error_code/_error
 * report the session's most recent outcome, so concurrent sessions never
 * see each other's failures. A session and its namespaces are intended for
 * one thread at a time; open one session per worker.
 *
 * Error reporting: functions returning int use 0 for success and a
 * negative dstore error code otherwise (DS_E*, generated from
 * common/status_codes.h); byte-count functions return >= 0 or a negative
 * error code, mirroring POSIX ssize_t conventions. A NULL handle yields
 * DS_EINVAL (or NULL) without touching any error slot.
 */
#ifndef DSTORE_DSTORE_C_H_
#define DSTORE_DSTORE_C_H_

#include <stddef.h>
#include <stdint.h>
#include <sys/types.h>

#include "common/status_codes.h" /* DS_OK / DS_E* — the one code table */

#ifdef __cplusplus
extern "C" {
#endif

/* Error-code and byte-count returns must be checked: ignoring them turns a
 * failed write into silent data loss. The C++ side gets the same guarantee
 * from [[nodiscard]] on Status/Result; this is the C89-compatible spelling.
 * tools/dstore_lint additionally rejects discarded Status returns in src/. */
#if defined(__GNUC__) || defined(__clang__)
#define DS_NODISCARD __attribute__((warn_unused_result))
#else
#define DS_NODISCARD
#endif

/* Binding version, bumped whenever this header's contract changes.
 * 4.0: removed the flat v2 surface, its thread-local error slot and its
 * store-options directory knob ("dir:" targets replace it); added
 * ds_object_* and ds_lock/ds_unlock on namespaces.
 * 3.0: handle-based ds_session_t/ds_namespace_t API, one open surface for
 * embedded and remote stores, per-session error slots.
 * 2.0: removed the DStore::Stats/StageStats C++ getters the bindings sat
 * on; added ds_api_version(). */
#define DS_API_VERSION_MAJOR 4
#define DS_API_VERSION_MINOR 0

/* Runtime version of the linked library: (major << 16) | minor. Compare
 * the major against DS_API_VERSION_MAJOR before using anything else. */
uint32_t ds_api_version(void);

typedef struct ds_session ds_session_t;     /* a store connection (opaque) */
typedef struct ds_namespace ds_namespace_t; /* a tenant keyspace (opaque) */
typedef struct ds_object ds_object_t;       /* an open object (opaque) */

typedef struct dstore_options {
  uint64_t max_objects;   /* metadata capacity (default 16384 if 0) */
  uint64_t num_blocks;    /* SSD blocks (default 65536 if 0) */
  uint32_t log_slots;     /* DIPPER log capacity (default 8192 if 0) */
  int background_checkpointing; /* nonzero = checkpoint in the background */
} dstore_options;

typedef struct ds_session_options {
  dstore_options store;    /* embedded targets: sizing knobs (0 = defaults) */
  int create;              /* "dir:" targets: nonzero formats fresh, 0 recovers
                            * ("mem:" always starts fresh) */
  uint32_t pipeline_depth; /* remote targets: max in-flight frames (0 = 64) */
} ds_session_options;

/* Open a session. Targets:
 *   "mem:"           fresh in-memory embedded store
 *   "dir:PATH"       file-backed embedded store at PATH
 *   "HOST:PORT"      remote dstore_serverd (also "tcp:HOST:PORT")
 * options may be NULL for defaults. Returns NULL on failure; the reason
 * is readable via ds_open_error(). */
ds_session_t* ds_session_open(const char* target, const ds_session_options* options);
void ds_session_close(ds_session_t* session);

/* Why the most recent ds_session_open() on this thread returned NULL. A
 * thread-local slot, since there is no session to carry the reason. */
const char* ds_open_error(void);

/* Open (creating on first use) a tenant namespace. Names must be non-empty
 * and must not contain byte 0x1f. Returns NULL on failure (reason on the
 * session's error slot). Close every namespace before its session. */
ds_namespace_t* ds_namespace_open(ds_session_t* session, const char* name);
void ds_namespace_close(ds_namespace_t* ns);

/* Key-value operations on a namespace. ds_get copies up to value_cap bytes
 * and returns the FULL value size (call again with a larger buffer if it
 * exceeds value_cap); ds_put returns the byte count written. Both return a
 * negative DS_E* code on failure. */
DS_NODISCARD ssize_t ds_put(ds_namespace_t* ns, const char* key, const void* value,
                            size_t size);
DS_NODISCARD ssize_t ds_get(ds_namespace_t* ns, const char* key, void* value,
                            size_t value_cap);
DS_NODISCARD int ds_delete(ds_namespace_t* ns, const char* key);

/* Filesystem-style objects (embedded sessions only; remote sessions return
 * NULL / DS_ENOTSUP). An object shares its namespace's keyspace, so
 * ds_get sees what ds_object_write wrote under the same name.
 * ds_object_open returns NULL on failure (reason on the session's error
 * slot); close every object before its namespace. Reads past EOF return 0;
 * a negative offset, or writing through a handle opened without
 * DS_O_WRITE, is DS_EINVAL. */
#define DS_O_READ 0x1u
#define DS_O_WRITE 0x2u
#define DS_O_CREATE 0x4u /* create if absent (requires DS_O_WRITE) */
ds_object_t* ds_object_open(ds_namespace_t* ns, const char* name, size_t size_hint,
                            uint32_t flags);
void ds_object_close(ds_object_t* obj);
DS_NODISCARD ssize_t ds_object_read(ds_object_t* obj, void* buf, size_t size, off_t offset);
DS_NODISCARD ssize_t ds_object_write(ds_object_t* obj, const void* buf, size_t size,
                                     off_t offset);

/* Object locks for inter-object dependencies (embedded sessions only;
 * remote sessions return DS_ENOTSUP). Locks are not recursive: a second
 * ds_lock is DS_EBUSY; the holding namespace may still write the object.
 * Unlocking a name that is not held is DS_ENOTFOUND. */
DS_NODISCARD int ds_lock(ds_namespace_t* ns, const char* name);
DS_NODISCARD int ds_unlock(ds_namespace_t* ns, const char* name);

/* Maintenance. ds_scrub runs one full integrity pass (every shard, for a
 * remote session). ds_checkpoint forces a checkpoint on embedded sessions
 * and returns DS_ENOTSUP on remote ones (servers checkpoint themselves at
 * the log watermark). */
DS_NODISCARD int ds_scrub(ds_session_t* session);
DS_NODISCARD int ds_checkpoint(ds_session_t* session);

/* Metrics scrape (DESIGN.md §10; remote sessions scrape over the wire and
 * include the server's net_* series). Returns a NUL-terminated malloc()ed
 * string the caller must free(), or NULL on failure. */
#define DS_METRICS_JSON 0
#define DS_METRICS_PROMETHEUS 1
char* ds_session_metrics(ds_session_t* session, int format);

/* Per-session error slot: the outcome of the most recent call made through
 * this session or its namespaces and objects. Sessions never observe each
 * other's errors, which is what makes error handling sane with several
 * remote sessions on one thread — or one session per thread. The returned
 * pointer refers to session-owned storage and is invalidated by the
 * session's next failing call; copy it out if you need it longer. */
int ds_session_last_error_code(const ds_session_t* session);
const char* ds_session_last_error(const ds_session_t* session);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* DSTORE_DSTORE_C_H_ */
