// Targeted WAL redo after a flash loss.
//
// With a persistent write-back cache (FaCE), the newest version of a dirty
// page may live only on flash — that is the paper's durability argument:
// flash is part of the persistent database. When the flash device is
// declared lost, those versions are gone, but every *committed* update to
// them is still in the WAL at or above the page's durability-exposure floor
// (the recLSN the page had when it was first admitted dirty to flash — see
// FaceCache::dirty_since_ / LcCache's per-slot rec_lsn).
//
// This component reruns ARIES redo on the LIVE engine, scoped to exactly
// that lost set: one sequential WAL scan from the minimum floor, applying
// update/CLR records for target pages under the usual pageLSN test, then
// writing the rebuilt pages to their durable home on disk. The scan is
// RedoFrom (recovery/restart.h), the same code restart's redo phase runs,
// so the crash path and the degrade path cannot drift apart.
//
// Caller contract (see Testbed::DegradeToDiskOnly and Testbed::ScrubPass):
//   - no cache may still serve the lost pages: after a flash loss the
//     buffer pool is disk-only; the scrubber has already dropped every page
//     it reports, and the cache stays live for the rest;
//   - the WAL must not have been truncated above the floor (the
//     checkpointer holds it down via CacheExtension::FlashRedoFloor);
//   - stranded-transaction rollback must run AFTER the rebuild: rollback
//     applies before-images to the page tips this redo reconstructs.
#pragma once

#include <cstdint>
#include <vector>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "storage/db_storage.h"
#include "wal/log_manager.h"

namespace face {

/// Outcome and cost breakdown of one flash rebuild.
struct FlashRebuildReport {
  uint64_t target_pages = 0;     ///< flash-only dirty pages to reconstruct
  uint64_t records_scanned = 0;  ///< update/CLR records touching a target
  uint64_t records_applied = 0;  ///< records whose effects were re-applied
  uint64_t pages_written = 0;    ///< rebuilt pages written to disk
  Lsn floor = kInvalidLsn;       ///< WAL scan start actually used
};

/// One-shot rebuild runner; see file comment.
class FlashRebuild {
 public:
  FlashRebuild(LogManager* log, BufferPool* pool, DbStorage* storage)
      : log_(log), pool_(pool), storage_(storage) {}

  /// Reconstruct `lost` (in any order) from the WAL and write the results
  /// to disk in ascending page order. Entries whose redo_lsn is kInvalidLsn
  /// scan from `fallback_floor` (the restored control block's
  /// rebuild_floor, or the last checkpoint); if that is also invalid, from
  /// the start of the log.
  StatusOr<FlashRebuildReport> Rebuild(const std::vector<FlashOnlyPage>& lost,
                                       Lsn fallback_floor);

 private:
  LogManager* log_;
  BufferPool* pool_;
  DbStorage* storage_;
};

}  // namespace face
