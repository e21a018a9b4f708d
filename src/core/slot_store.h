// The fixed-frame flash store under the in-place cache policies (LC, TAC,
// Exadata).
//
// FaCE §3.2 describes a flash cache by four decisions: when to admit, what
// to cache, how to sync, and how to replace. The in-place designs make those
// decisions differently but store pages the same way: `n_frames` slots, one
// full page image per slot, overwritten in place. SlotStore is that storage
// and nothing else:
//
//   - the page -> slot index and a packed slot -> page reverse map (the
//     flash-to-virtual map of a frame cache), kept a bijection;
//   - the free list, filled descending so slot 0 is allocated first;
//   - stamp-on-write: every frame write sets the page id and checksum;
//   - validated reads that patch the page's delta chain on top of the base;
//   - page-differential refresh through a DeltaRing placed right past the
//     frames, with base tag = slot and slot-reuse consolidation;
//   - a rotating checksum scrub over the reverse map;
//   - the cold reset used by crash restart, and
//     the restart sweep of an owner with a persistent directory (TAC).
//
// The owner keeps its per-slot metadata in vectors indexed by slot and
// decides who is admitted and who is evicted; an owner that ranks slots by
// a per-slot standing (LC's LRU-2, TAC's temperature) keeps it in a
// SlotVictimOrder. Device layout: frame i lives at block `frame_base + i`;
// the delta ring follows the last frame. Single-threaded.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/lazy_min_heap.h"
#include "common/page_map.h"
#include "common/status.h"
#include "common/types.h"
#include "core/cache_ext.h"
#include "core/delta_ring.h"
#include "core/flash_layout.h"
#include "sim/sim_device.h"
#include "storage/db_storage.h"

namespace face {

class SlotStore {
 public:
  static constexpr uint32_t kNoSlot = ~0u;

  /// Device blocks for `n_frames` slots starting at `frame_base`, plus the
  /// delta ring after them.
  static uint64_t DeviceBlocksFor(uint64_t frame_base, uint64_t n_frames) {
    return frame_base + n_frames + FlashLayout::DeltaBlocksFor(n_frames);
  }

  /// Flash I/O and delta counters are charged to `stats` (the owner's).
  /// `storage` is the durable home scrub repairs clean frames from.
  SlotStore(uint64_t n_frames, uint64_t frame_base, SimDevice* flash,
            DbStorage* storage, CacheStats* stats);

  uint64_t n_frames() const { return n_frames_; }
  uint64_t size() const { return index_.size(); }
  bool Contains(PageId pid) const { return index_.Contains(pid); }
  /// Slot holding `pid`, or kNoSlot.
  uint32_t SlotOf(PageId pid) const {
    const uint32_t* slot = index_.Find(pid);
    return slot == nullptr ? kNoSlot : *slot;
  }
  /// Page cached in `slot` (kInvalidPageId when free).
  PageId PageAt(uint32_t slot) const { return slot_page_[slot]; }
  bool HasFree() const { return !free_.empty(); }

  /// Write the full image of `pid` into the next free slot (HasFree() must
  /// hold), map it and start its delta chain. Returns the slot; the chain's
  /// tip version goes to `version` when non-null.
  StatusOr<uint32_t> Admit(PageId pid, const char* page,
                           uint64_t* version = nullptr);
  /// Unmap the page in occupied `slot`, free the slot and drop its chain.
  /// No flash I/O; counts one invalidation.
  void Release(uint32_t slot);

  /// Validated read of the page in `slot`: the base frame must carry a
  /// good checksum and the right page id, then the delta chain is patched
  /// on top. Returns the chain tip version the caller may delta against.
  StatusOr<uint64_t> ReadFrame(uint32_t slot, char* out);
  /// Unvalidated read of the current tip image (base + chain).
  Status ReadTip(uint32_t slot, char* out);

  /// Ship a refresh of the page in `slot` as a delta record when `hint`
  /// tracks a small diff against the chain tip. True when appended (the
  /// new tip is in hint->new_version); false means the caller must rewrite
  /// or drop. `dirty` marks the record's data as newer than disk.
  StatusOr<bool> TryDeltaRefresh(uint32_t slot, const char* page,
                                 DeltaWriteHint* hint, bool dirty);
  /// Full in-place refresh: rewrite the frame and re-base the chain on it.
  Status Rewrite(uint32_t slot, const char* page);
  /// Make every appended delta record durable (checkpoint path).
  Status FlushDeltas();

  /// Called for a rotten frame before it is repaired. Returns true when the
  /// owner held the slot's only current copy (dirty): it has then released
  /// the slot and reported the page in ScrubResult::lost_dirty.
  using TakeDirtyFn = std::function<bool(uint32_t slot)>;
  /// Verify up to `max_frames` occupied frames: ascending slot order from
  /// the rotating cursor, wrapping, each slot at most once per call. The
  /// next call resumes just past the last frame verified. A rotten clean
  /// frame is rewritten from the disk copy, which is its chain tip.
  Status Scrub(uint64_t max_frames, ScrubResult* out,
               const TakeDirtyFn& take_dirty = nullptr);

  /// Forget every page and chain and start a fresh delta-ring epoch on the
  /// media: a cold start.
  Status Format();

  /// Restart from a persistent directory: `claimed(slot)` is the page the
  /// directory records for `slot` (kInvalidPageId when empty). One
  /// sequential sweep validates every frame; a claimed frame that passes
  /// is mapped again, every other slot is freed, and `on_torn(slot)` runs
  /// for each claimed frame that failed validation. A mapped frame that
  /// surviving media delta records are based on is a stale base (the
  /// crash-time tip lived in the chain): `on_stale(slot)` must Release it.
  /// The ring then starts a fresh epoch; the scrub rotation resumes where
  /// it stopped.
  using ClaimFn = std::function<PageId(uint32_t slot)>;
  using SlotFn = std::function<Status(uint32_t slot)>;
  Status Rebuild(const ClaimFn& claimed, const SlotFn& on_torn,
                 const SlotFn& on_stale);

  /// Visit occupied slots in ascending order as fn(slot, page_id).
  template <typename Fn>
  void ForEachPage(Fn&& fn) const {
    for (uint32_t s = 0; s < n_frames_; ++s) {
      if (slot_page_[s] != kInvalidPageId) fn(s, slot_page_[s]);
    }
  }

  /// The store's contract: index and reverse map are a bijection, cached +
  /// free == n_frames, and every delta chain is based on its page's slot.
  Status CheckInvariants() const;

 private:
  uint64_t FrameBlock(uint32_t slot) const { return frame_base_ + slot; }
  /// Empty the index, reverse map and free list; drop every chain.
  void Unmap();
  /// Unmap(), then free every slot and restart the scrub rotation at slot
  /// 0 (no flash I/O).
  void Clear();
  /// Start a fresh delta-ring epoch on the media.
  Status RenewRing();
  /// Read the base frame of `slot` (no validation, no chain).
  Status ReadBase(uint32_t slot, char* out);
  void Bind(PageId pid, uint32_t slot) {
    slot_page_[slot] = pid;
    index_.TryEmplace(pid, slot);
  }
  /// Stamp page id + checksum on a copy of `page` and write it to `slot`.
  Status WriteFrame(uint32_t slot, const char* page);
  /// DeltaRing slot-reuse callback: rewrite the tip image of each page
  /// with records in the reclaimed ring slot into its frame (re-basing).
  Status ConsolidateDeltaPages(const std::vector<PageId>& pids);

  uint64_t n_frames_;
  uint64_t frame_base_;
  SimDevice* flash_;
  DbStorage* storage_;
  CacheStats* stats_;

  PageMap<uint32_t> index_;         ///< page id -> slot
  std::vector<PageId> slot_page_;   ///< slot -> page id (reverse map)
  std::vector<uint32_t> free_;      ///< free slots; back() is next
  uint32_t scrub_cursor_ = 0;       ///< next slot Scrub looks at
  std::string scratch_;             ///< stamp-on-write staging (one page)
  std::string page_buf_;            ///< consolidation / scrub arena

  DeltaRing delta_;
};

/// Lazy victim order over a SlotStore's slots. Each occupied slot has one
/// standing (primary, tick): the owner's rank, then a tick that is unique
/// and monotonic, so a superseded key can never become current again and
/// the slot in the key never breaks a tie. Minimum = next victim.
class SlotVictimOrder {
 public:
  using Key = std::tuple<uint64_t, uint64_t, uint32_t>;

  explicit SlotVictimOrder(const SlotStore* store)
      : store_(store), standing_(store->n_frames()) {}

  /// Give `slot` the standing (primary, tick); its old key goes stale.
  void Set(uint32_t slot, uint64_t primary, uint64_t tick) {
    standing_[slot] = {primary, tick};
    heap_.Push({primary, tick, slot});
  }
  uint64_t primary(uint32_t slot) const { return standing_[slot].first; }
  uint64_t tick(uint32_t slot) const { return standing_[slot].second; }

  /// A key is current iff its slot is occupied and holds that standing.
  bool IsCurrent(const Key& key) const {
    const uint32_t slot = std::get<2>(key);
    return store_->PageAt(slot) != kInvalidPageId &&
           standing_[slot].first == std::get<0>(key) &&
           standing_[slot].second == std::get<1>(key);
  }
  /// IsCurrent as a heap predicate.
  auto Current() const {
    return [this](const Key& key) { return IsCurrent(key); };
  }
  /// Smallest current key; false when no slot is occupied.
  bool PeekMin(Key* out) { return heap_.PeekMin(Current(), out); }
  /// Remove the key the last PeekMin returned.
  void PopMin() { heap_.PopMin(); }
  /// Bound the stale backlog; call after a re-ranking Set.
  void MaybeCompact() { heap_.MaybeCompact(store_->size(), Current()); }
  /// Every key, stale included, for ordered traversals.
  const std::vector<Key>& keys() const { return heap_.keys(); }
  void Clear() { heap_.Clear(); }
  /// Audit: every occupied slot's current key is in the heap exactly once.
  bool InSync() const {
    return heap_.CurrentKeysMatch(store_->size(), Current());
  }

 private:
  const SlotStore* store_;
  std::vector<std::pair<uint64_t, uint64_t>> standing_;  ///< per slot
  LazyMinHeap<Key> heap_;
};

}  // namespace face
