// One KV table over the existing engine: a heap file holding fixed-width
// rows plus a B+tree primary index mapping the order-preserving key
// encoding to heap Rids — the same table-plus-index wiring TPC-C uses, with
// a YCSB-shaped schema ("user<id>" -> opaque payload).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/random.h"
#include "common/status.h"
#include "engine/btree.h"
#include "engine/database.h"
#include "engine/heap_file.h"

namespace face {
namespace workload {

/// The KV table handles; see file comment.
struct KvTable {
  static constexpr const char* kTableName = "kv";
  static constexpr const char* kIndexName = "pk_kv";

  HeapFile rows;
  BPlusTree pk;

  /// Create the table and index in a fresh database.
  static StatusOr<KvTable> Create(Database& db, PageWriter* writer);
  /// Open them from the catalog.
  static StatusOr<KvTable> Open(Database& db);

  /// Order-preserving index key of logical key id `id`.
  static std::string Key(uint64_t id);
  /// Deterministic row image of `id` into a caller-owned buffer (reuse it
  /// and steady state never allocates): 8-byte id header + pseudo-random
  /// payload, `value_bytes` total payload (fixed width, so updates are
  /// equal-length in-place overwrites). `version` varies the payload.
  static void RowTo(std::string* out, uint64_t id, uint32_t value_bytes,
                    uint64_t version);
  /// RowTo's images of rows (ids[j], versions[j]), j < n <= 8, back to
  /// back at out[j * (8 + value_bytes)]: all at once where the CPU has
  /// AVX-512, else one by one. Byte-for-byte RowTo's output.
  static void RowsTo(char* out, const uint64_t* ids, const uint64_t* versions,
                     uint32_t n, uint32_t value_bytes);
  /// True if `row` is exactly RowTo's image; it is built in `scratch`.
  static bool IsRow(const std::string& row, uint64_t id, uint32_t value_bytes,
                    uint64_t version, std::string* scratch);
  /// One generator draw's eight payload letters: byte k (least significant
  /// first) is 'a' + (draw byte k) % 26, computed without division.
  static uint64_t Letters8(uint64_t draw);

  /// Insert `id`'s row and index entry.
  Status Insert(PageWriter* writer, uint64_t id, uint32_t value_bytes,
                uint64_t version);
  /// Populate ids [0, records) in one pass: heap rows appended in id order,
  /// the index built through the sorted B+tree bulk-load path (same row
  /// images as `records` Insert calls, far fewer page touches). The table
  /// must be freshly created.
  Status BulkLoad(PageWriter* writer, uint64_t records, uint32_t value_bytes);
  /// Populate ids [0, records) through either load path — the shared
  /// factory Load() body of the KV workloads. `bulk` selects BulkLoad;
  /// false replays the per-record insert path (see YcsbOptions::bulk_load).
  Status Populate(PageWriter* writer, uint64_t records, uint32_t value_bytes,
                  bool bulk);
  /// Point-read `id` into `out`; NotFound if absent.
  Status Read(uint64_t id, std::string* out) const;
  /// The pins ReadPinned holds between calls: an index path, a heap page.
  struct ReadPins {
    BPlusTree::PinnedPath path;
    PageHandle heap;
  };
  /// Read for sweeps in key order, without the copy: `*row` views the
  /// pinned heap page. Fetches nothing when `id`'s descent stays on the
  /// pinned path to a row on the pinned heap page; else releases every pin
  /// and runs Read's fetches, pinning them. Read's statuses, and Read's
  /// LRU order (src/fault/README.md).
  Status ReadPinned(uint64_t id, ReadPins* pins, std::string_view* row) const;
  /// Overwrite `id`'s row in place with a new version.
  Status Update(PageWriter* writer, uint64_t id, uint32_t value_bytes,
                uint64_t version);
  /// Range-scan up to `max_rows` rows starting at the first key >= `id`,
  /// reading each row through the heap. Returns rows actually read.
  StatusOr<uint64_t> Scan(uint64_t id, uint64_t max_rows) const;

  /// Count entries with key id >= `from_id` (cheap tail count used to
  /// recover the insert high-water mark after a crash).
  StatusOr<uint64_t> CountFrom(uint64_t from_id) const;

  /// Reused row-image buffer for the mutation hot paths (the ~8-16 byte
  /// key/rid strings stay in SSO and need no such treatment).
  std::string row_scratch;
};

}  // namespace workload
}  // namespace face
