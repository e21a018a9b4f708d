// The Lazy Cleaning (LC) baseline of Do et al., "Turbocharging DBMS Buffer
// Pool Using SSDs" (SIGMOD 2011) — the closest prior design to FaCE and the
// paper's principal comparison point (Table 2: on exit, both, write-back,
// LRU-2).
//
// LC keeps exactly one up-to-date copy per cached page in a fixed flash
// frame. Replacement is LRU-2: the victim is the page whose *penultimate*
// reference is oldest, which keeps single-visit pages from polluting the
// cache but makes every replacement an in-place — i.e. random — flash write.
// Dirty flash pages are flushed to disk by a background "lazy cleaner" once
// the dirty fraction passes a threshold. The cache is NOT part of the
// persistent database: its directory lives only in DRAM, so a database
// checkpoint must force all flash-resident dirty pages to disk (the
// checkpointing cost the FaCE paper charges to LC), and a crash resets the
// cache cold.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "core/slot_store.h"
#include "sim/sim_device.h"
#include "storage/db_storage.h"

namespace face {

/// Tuning knobs for the LC baseline.
struct LcOptions {
  /// Flash cache capacity in pages.
  uint64_t n_frames = 0;
  /// Start the lazy cleaner when dirty frames exceed this fraction.
  double clean_threshold = 0.80;
  /// Clean down to this fraction before going back to sleep (hysteresis).
  double clean_target = 0.75;
  /// Dirty pages flushed per background run.
  uint32_t clean_batch = 64;
};

/// The LC cache extension; see file comment. Single-threaded.
class LcCache final : public CacheExtension {
 public:
  /// Device blocks LC needs: one frame per page plus the delta-record ring
  /// appended past the frames.
  static uint64_t DeviceBlocksFor(uint64_t n_frames) {
    return SlotStore::DeviceBlocksFor(0, n_frames);
  }

  /// `flash` must have at least DeviceBlocksFor(n_frames) blocks. `storage`
  /// receives cleaned and evicted dirty pages.
  LcCache(const LcOptions& options, SimDevice* flash, DbStorage* storage);

  // CacheExtension interface --------------------------------------------------
  const char* name() const override { return "LC"; }
  bool IsPersistent() const override { return false; }
  bool Contains(PageId page_id) const override {
    return store_.Contains(page_id);
  }
  StatusOr<FlashReadResult> ReadPage(PageId page_id, char* out) override;
  Status OnDramEvict(PageId page_id, char* page, bool dirty, bool fdirty,
                     Lsn rec_lsn, DeltaWriteHint* hint = nullptr) override;
  /// Flush every flash-resident dirty page to disk: the flash cache is not
  /// persistent, so checkpoint completeness requires it (paper §2.3).
  Status PrepareCheckpoint() override;
  void OnPageWrittenToDisk(PageId page_id) override;
  /// The DRAM directory dies with the process: restart cold.
  Status RecoverAfterCrash() override;
  Status RunBackgroundWork() override;
  bool HasBackgroundWork() const override;
  Status CheckInvariants() const override;

  // Durability exposure / scrub (see cache_ext.h). LC's write-back window
  // — flash-dirty pages between checkpoints — is the exposure a flash loss
  // creates; every dirty slot already tracks its recLSN.
  void CollectFlashOnlyDirty(std::vector<FlashOnlyPage>* out) const override;
  Lsn FlashRedoFloor() const override;
  Status ScrubSome(uint64_t max_frames, ScrubResult* out) override;

  // Introspection --------------------------------------------------------------
  uint64_t cached_pages() const { return store_.size(); }
  uint64_t dirty_pages() const { return dirty_count_; }
  double DirtyFraction() const {
    return options_.n_frames
               ? static_cast<double>(dirty_count_) /
                     static_cast<double>(options_.n_frames)
               : 0.0;
  }

 private:
  /// Per-slot write-back state of the cached page.
  struct SlotMeta {
    bool dirty = false;         ///< flash copy newer than the disk copy
    Lsn rec_lsn = kInvalidLsn;  ///< conservative recLSN while dirty
  };

  /// Record a reference to the page in `slot` (maintains the victim order).
  void Touch(uint32_t slot);
  /// Flag the page in `slot` dirty, keeping the oldest recLSN.
  void MarkDirty(uint32_t slot, Lsn rec_lsn);
  /// Stage the dirty page in `slot` out to disk and mark it clean.
  Status CleanSlot(uint32_t slot);
  /// Evict the LRU-2 victim, cleaning it first if dirty. Frees its slot.
  Status EvictVictim();
  /// Forget the page in `slot` (no I/O): dirty accounting plus release.
  void Drop(uint32_t slot);

  LcOptions options_;
  DbStorage* storage_;

  /// Frames at block 0, delta ring past them. Delta chains are not durable
  /// state — a crash resets them with the rest of the DRAM directory.
  SlotStore store_;
  std::vector<SlotMeta> meta_;  ///< per-slot write-back state
  /// LRU-2: standing (penultimate reference, last reference), so the
  /// oldest penultimate reference goes first, ties by oldest last one.
  /// A first visit has penultimate 0 ("-inf").
  SlotVictimOrder victim_order_;
  std::vector<SlotVictimOrder::Key> cleaner_keys_;  ///< traversal snapshot
  uint64_t clock_ = 0;       ///< logical reference tick
  uint64_t dirty_count_ = 0;
  bool cleaning_ = false;    ///< hysteresis state of the lazy cleaner
  std::string scratch_;      ///< one-page staging buffer
};

}  // namespace face
