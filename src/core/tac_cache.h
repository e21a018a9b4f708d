// The Temperature-Aware Caching (TAC) baseline of the IBM DB2 Bufferpool
// Extension prototype (Canim et al., PVLDB 2010; Bhattacharjee et al.,
// DaMoN 2011) — Table 2's "on entry, both, write-through, Temperature" row.
//
// TAC admits pages into flash when they are fetched from disk, gated by the
// access temperature of their extent (a fixed run of contiguous pages), and
// keeps the flash cache consistent with disk through a write-through policy:
// a dirty page evicted from DRAM is written to disk AND, if cached, its
// flash copy is updated in place. Flash therefore never holds data newer
// than disk and provides no write reduction — only read caching.
//
// Its distinguishing cost is persistent metadata: TAC maintains a slot
// directory *in flash*, one entry per cached page, updated with an
// invalidation write followed by a validation write on every replacement
// (paper §4.1). Those are small random flash writes, and they are exactly
// the overhead FaCE's segmented, sequential metadata checkpointing avoids.
// The payoff is that the directory survives a crash, so a restart can
// rebuild the cache map with a short sequential scan and serve recovery
// reads from flash.
#pragma once

#include <cstdint>
#include <string>

#include "common/page_map.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "core/flash_layout.h"
#include "core/slot_store.h"
#include "sim/sim_device.h"
#include "storage/db_storage.h"

namespace face {

/// Tuning knobs for the TAC baseline.
struct TacOptions {
  /// Flash cache capacity in pages.
  uint64_t n_frames = 0;
  /// Pages per temperature extent (DB2 BPX monitors at extent granularity).
  uint32_t extent_pages = 64;
};

/// The TAC cache extension; see file comment. Single-threaded.
class TacCache final : public CacheExtension {
 public:
  /// Directory entries per 4 KB block (entries never straddle blocks, so a
  /// single-entry update rewrites exactly one block).
  static constexpr uint64_t kEntriesPerBlock =
      kPageSize / FlashMetaEntry::kEncodedSize;

  /// Directory blocks needed for an `n_frames` cache.
  static constexpr uint64_t DirBlocksFor(uint64_t n_frames) {
    return (n_frames + kEntriesPerBlock - 1) / kEntriesPerBlock;
  }

  /// Device blocks TAC needs: directory + frames + the delta-record ring
  /// appended past the frames.
  static uint64_t DeviceBlocksFor(uint64_t n_frames) {
    return SlotStore::DeviceBlocksFor(DirBlocksFor(n_frames), n_frames);
  }

  /// `flash` must have at least DeviceBlocksFor(n_frames) blocks.
  TacCache(const TacOptions& options, SimDevice* flash, DbStorage* storage);

  // CacheExtension interface --------------------------------------------------
  /// Initialize an empty persistent directory on a blank device.
  Status Format() override;
  const char* name() const override { return "TAC"; }
  bool IsPersistent() const override { return false; }
  bool Contains(PageId page_id) const override {
    return store_.Contains(page_id);
  }
  StatusOr<FlashReadResult> ReadPage(PageId page_id, char* out) override;
  Status OnDramEvict(PageId page_id, char* page, bool dirty, bool fdirty,
                     Lsn rec_lsn, DeltaWriteHint* hint = nullptr) override;
  /// On-entry admission: the temperature-gated caching decision.
  Status OnFetchFromDisk(PageId page_id, const char* page,
                         uint64_t* admitted_version = nullptr) override;
  /// Delta records absorbed by a checkpoint must be durable: recovery drops
  /// any slot whose page has media delta records, and that net depends on
  /// pre-checkpoint records actually being on the media (see
  /// RecoverAfterCrash).
  Status OnCheckpoint() override { return store_.FlushDeltas(); }
  void OnPageWrittenToDisk(PageId page_id) override;
  /// Rebuild the cache map from the persistent slot directory.
  Status RecoverAfterCrash() override;
  Status ScrubSome(uint64_t max_frames, ScrubResult* out) override;
  Status CheckInvariants() const override;

  // Introspection --------------------------------------------------------------
  uint64_t cached_pages() const { return store_.size(); }

 private:
  /// Bump the extent's temperature and return the new value.
  uint64_t Heat(PageId page_id) {
    return ++extent_temp_[page_id / options_.extent_pages];
  }
  /// Give the page in `slot` a fresh standing in the victim order.
  void Stand(uint32_t slot, uint64_t temp) {
    victim_order_.Set(slot, temp, ++clock_);
  }
  /// Persist the directory entry for `slot` (one random flash write).
  Status WriteDirEntry(uint64_t slot, PageId page_id, bool occupied);
  /// Release the page in `slot` and persist the invalidation.
  Status Invalidate(uint32_t slot);
  /// Forget the in-memory map (the directory on flash is untouched).
  void ResetMap();

  TacOptions options_;
  uint64_t dir_blocks_;
  SimDevice* flash_;
  DbStorage* storage_;

  /// Frames past the slot directory, delta ring past the frames. The
  /// write-through refresh travels as a delta record (dirty = false — flash
  /// never holds data newer than disk). Restart conservatively drops any
  /// slot whose page has surviving media records: its frame is a stale
  /// base, and disk holds the current copy anyway.
  SlotStore store_;
  /// Standing (extent temperature at last touch, age tick): coldest first,
  /// ties by age.
  SlotVictimOrder victim_order_;
  PageMap<uint64_t> extent_temp_;  ///< extent number -> access temperature
  uint64_t clock_ = 0;
  std::string scratch_;  ///< directory block staging buffer
};

}  // namespace face
