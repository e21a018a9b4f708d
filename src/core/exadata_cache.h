// Exadata-style Smart Flash Cache baseline — Table 2's "on entry, clean,
// write-through, LRU" row.
//
// Oracle Exadata caches data pages in flash when they are read from disk
// (modulo a static type priority we approximate with an admit-all rule,
// since our workload is all tables and indexes — the types Exadata
// prioritizes). The cache is read-only from the database's perspective:
// dirty pages are written through to disk and a cached copy is simply
// invalidated, so flash never holds the only current copy of anything.
// Metadata lives in DRAM; a crash resets the cache cold.
//
// Frames live in a SlotStore; the LRU is intrusive over its slot indexes
// (like the buffer pool's): no per-reference list-node churn.
#pragma once

#include <cstdint>
#include <vector>

#include "common/intrusive_list.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "core/slot_store.h"
#include "sim/sim_device.h"
#include "storage/db_storage.h"

namespace face {

/// The Exadata-style cache extension; see file comment. Single-threaded.
class ExadataCache final : public CacheExtension {
 public:
  /// Device blocks the cache needs: one frame per page plus the
  /// delta-record ring appended past the frames.
  static uint64_t DeviceBlocksFor(uint64_t n_frames) {
    return SlotStore::DeviceBlocksFor(0, n_frames);
  }

  /// `flash` must have at least DeviceBlocksFor(n_frames) blocks.
  ExadataCache(uint64_t n_frames, SimDevice* flash, DbStorage* storage);

  // CacheExtension interface --------------------------------------------------
  const char* name() const override { return "Exadata"; }
  bool IsPersistent() const override { return false; }
  bool Contains(PageId page_id) const override {
    return store_.Contains(page_id);
  }
  StatusOr<FlashReadResult> ReadPage(PageId page_id, char* out) override;
  Status OnDramEvict(PageId page_id, char* page, bool dirty, bool fdirty,
                     Lsn rec_lsn, DeltaWriteHint* hint = nullptr) override;
  Status OnFetchFromDisk(PageId page_id, const char* page,
                         uint64_t* admitted_version = nullptr) override;
  void OnPageWrittenToDisk(PageId page_id) override;
  Status RecoverAfterCrash() override;
  Status ScrubSome(uint64_t max_frames, ScrubResult* out) override;
  Status CheckInvariants() const override;

  uint64_t cached_pages() const { return store_.size(); }

 private:
  /// Link accessor for the intrusive LRU over slots.
  auto SlotLinks() {
    return [this](uint32_t i) -> IntrusiveLinks& { return links_[i]; };
  }

  /// Drop the page cached in `slot` and free the slot.
  void DropSlot(uint32_t slot);

  DbStorage* storage_;

  /// Frames at block 0, delta ring past them. Instead of invalidating a
  /// cached copy on every dirty DRAM eviction, a small write-through update
  /// becomes a delta record (dirty = false — disk stays current) and the
  /// page stays cached. Not durable state.
  SlotStore store_;
  std::vector<IntrusiveLinks> links_;  ///< slot LRU links (head = MRU)
  IntrusiveList lru_;
};

}  // namespace face
