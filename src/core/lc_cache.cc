#include "core/lc_cache.h"

#include <algorithm>
#include <cassert>
#include <functional>

#include "obs/trace.h"

namespace face {

LcCache::LcCache(const LcOptions& options, SimDevice* flash,
                 DbStorage* storage)
    : options_(options),
      storage_(storage),
      store_(options.n_frames, /*frame_base=*/0, flash, storage, &stats_),
      meta_(options.n_frames),
      victim_order_(&store_) {
  assert(options_.clean_target <= options_.clean_threshold);
  scratch_.resize(kPageSize);
}

void LcCache::Touch(uint32_t slot) {
  // The old key goes stale in place; PeekMin/MaybeCompact discard it later.
  victim_order_.Set(slot, victim_order_.tick(slot), ++clock_);
  victim_order_.MaybeCompact();
}

void LcCache::MarkDirty(uint32_t slot, Lsn rec_lsn) {
  SlotMeta& m = meta_[slot];
  if (!m.dirty) {
    m.dirty = true;
    ++dirty_count_;
  }
  // Keep the most conservative (oldest) recLSN across overwrites.
  if (m.rec_lsn == kInvalidLsn ||
      (rec_lsn != kInvalidLsn && rec_lsn < m.rec_lsn)) {
    m.rec_lsn = rec_lsn;
  }
}

StatusOr<FlashReadResult> LcCache::ReadPage(PageId page_id, char* out) {
  const uint32_t slot = store_.SlotOf(page_id);
  if (slot == SlotStore::kNoSlot) {
    return Status::NotFound("page not in LC cache");
  }
  FACE_ASSIGN_OR_RETURN(const uint64_t version, store_.ReadFrame(slot, out));
  Touch(slot);
  FlashReadResult result{meta_[slot].dirty, meta_[slot].rec_lsn};
  result.flash_version = version;
  return result;
}

Status LcCache::CleanSlot(uint32_t slot) {
  SlotMeta& m = meta_[slot];
  assert(m.dirty);
  // Stage out the chain *tip*, not the stale base.
  FACE_RETURN_IF_ERROR(store_.ReadTip(slot, scratch_.data()));
  FACE_RETURN_IF_ERROR(
      storage_->WritePage(store_.PageAt(slot), scratch_.data()));
  ++stats_.disk_writes;
  m.dirty = false;
  m.rec_lsn = kInvalidLsn;
  assert(dirty_count_ > 0);
  --dirty_count_;
  return Status::OK();
}

void LcCache::Drop(uint32_t slot) {
  if (meta_[slot].dirty) --dirty_count_;
  store_.Release(slot);  // the heap key goes stale with the page
}

Status LcCache::EvictVictim() {
  SlotVictimOrder::Key key;
  if (!victim_order_.PeekMin(&key)) {
    return Status::Internal("LC victim order empty");
  }
  const uint32_t slot = std::get<2>(key);
  if (meta_[slot].dirty) {
    // CleanSlot flips dirty/recLSN only — the reference-history key stays
    // current, so the heap top is still this victim afterwards.
    FACE_RETURN_IF_ERROR(CleanSlot(slot));
  }
  victim_order_.PopMin();
  Drop(slot);
  return Status::OK();
}

Status LcCache::OnDramEvict(PageId page_id, char* page, bool dirty,
                            bool fdirty, Lsn rec_lsn, DeltaWriteHint* hint) {
  if (dirty) ++stats_.dirty_evictions;

  const uint32_t slot = store_.SlotOf(page_id);
  if (slot != SlotStore::kNoSlot) {
    // Single-copy discipline: overwrite the existing frame in place — but
    // only when the DRAM copy is actually newer (fdirty); otherwise the
    // flash copy is identical and no write is needed. A small refresh
    // against the chain tip travels as a delta record instead of an
    // in-place (random) full-frame rewrite.
    if (fdirty) {
      FACE_ASSIGN_OR_RETURN(const bool refreshed,
                            store_.TryDeltaRefresh(slot, page, hint, dirty));
      if (!refreshed) FACE_RETURN_IF_ERROR(store_.Rewrite(slot, page));
      if (dirty) MarkDirty(slot, rec_lsn);
    }
    Touch(slot);
    return Status::OK();
  }

  // Admission of a new page: free slot, else replace the LRU-2 victim.
  if (!store_.HasFree()) FACE_RETURN_IF_ERROR(EvictVictim());
  FACE_ASSIGN_OR_RETURN(const uint32_t fresh, store_.Admit(page_id, page));
  meta_[fresh] = SlotMeta{};
  if (dirty) MarkDirty(fresh, rec_lsn);
  // First visit: -inf history, prime eviction candidate.
  victim_order_.Set(fresh, 0, ++clock_);
  ++stats_.enqueues;
  return Status::OK();
}

Status LcCache::PrepareCheckpoint() {
  // Ascending-page order: the checkpoint flush is deterministic in the
  // cached set alone, and adjacent dirty pages coalesce into sequential
  // disk writes.
  std::vector<std::pair<PageId, uint32_t>> dirty;
  dirty.reserve(dirty_count_);
  store_.ForEachPage([&](uint32_t slot, PageId page_id) {
    if (meta_[slot].dirty) dirty.emplace_back(page_id, slot);
  });
  std::sort(dirty.begin(), dirty.end());
  for (const auto& entry : dirty) {
    FACE_RETURN_IF_ERROR(CleanSlot(entry.second));
  }
  return Status::OK();
}

void LcCache::OnPageWrittenToDisk(PageId page_id) {
  // The disk copy just became current; a cached copy is stale now. Drop it
  // (an in-memory invalidation — no flash I/O).
  const uint32_t slot = store_.SlotOf(page_id);
  if (slot != SlotStore::kNoSlot) Drop(slot);
}

Status LcCache::RecoverAfterCrash() {
  // Directory was DRAM-only: all cached state is unreachable after a crash.
  victim_order_.Clear();
  dirty_count_ = 0;
  cleaning_ = false;
  return store_.Format();
}

bool LcCache::HasBackgroundWork() const {
  const double dirty = DirtyFraction();
  if (cleaning_) return dirty > options_.clean_target;
  return dirty > options_.clean_threshold;
}

void LcCache::CollectFlashOnlyDirty(std::vector<FlashOnlyPage>* out) const {
  store_.ForEachPage([&](uint32_t slot, PageId page_id) {
    if (meta_[slot].dirty) {
      out->push_back(FlashOnlyPage{page_id, meta_[slot].rec_lsn});
    }
  });
}

Lsn LcCache::FlashRedoFloor() const {
  Lsn floor = kInvalidLsn;
  store_.ForEachPage([&](uint32_t slot, PageId) {
    const SlotMeta& m = meta_[slot];
    if (m.dirty && m.rec_lsn != kInvalidLsn &&
        (floor == kInvalidLsn || m.rec_lsn < floor)) {
      floor = m.rec_lsn;
    }
  });
  return floor;
}

Status LcCache::ScrubSome(uint64_t max_frames, ScrubResult* out) {
  return store_.Scrub(max_frames, out, [this, out](uint32_t slot) {
    if (!meta_[slot].dirty) return false;
    // Dirty frame: the rotten base held the only up-to-date copy. Drop the
    // page and report it for WAL-driven rebuild.
    out->lost_dirty.push_back(
        FlashOnlyPage{store_.PageAt(slot), meta_[slot].rec_lsn});
    Drop(slot);
    return true;
  });
}

Status LcCache::RunBackgroundWork() {
  if (!HasBackgroundWork()) return Status::OK();
  obs::ScopedSpan span("core.lc", "clean_batch");
  cleaning_ = true;
  // Clean coldest-first so pages likely to be re-dirtied soon stay dirty in
  // flash and keep absorbing writes. Ascending traversal over a heapified
  // snapshot of the victim keys (cleaning flips dirty bits, never keys, so
  // current keys stay current while we walk).
  cleaner_keys_.assign(victim_order_.keys().begin(),
                       victim_order_.keys().end());
  std::make_heap(cleaner_keys_.begin(), cleaner_keys_.end(),
                 std::greater<>());
  uint32_t flushed = 0;
  while (!cleaner_keys_.empty() && flushed < options_.clean_batch &&
         DirtyFraction() > options_.clean_target) {
    std::pop_heap(cleaner_keys_.begin(), cleaner_keys_.end(),
                  std::greater<>());
    const SlotVictimOrder::Key key = cleaner_keys_.back();
    cleaner_keys_.pop_back();
    if (!victim_order_.IsCurrent(key)) continue;
    const uint32_t slot = std::get<2>(key);
    if (!meta_[slot].dirty) continue;
    FACE_RETURN_IF_ERROR(CleanSlot(slot));
    ++flushed;
  }
  if (DirtyFraction() <= options_.clean_target) cleaning_ = false;
  if (obs::Enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    thread_local obs::Counter* runs = reg.GetCounter("core.lc.cleaner_runs");
    thread_local obs::Hist* pages = reg.GetHistogram("core.lc.clean_batch_pages");
    runs->Increment();
    pages->Add(flushed);
  }
  return Status::OK();
}

Status LcCache::CheckInvariants() const {
  FACE_RETURN_IF_ERROR(store_.CheckInvariants());
  if (!victim_order_.InSync()) {
    return Status::Internal("LC victim order out of sync with index");
  }
  uint64_t dirty = 0;
  bool ordered = true;  // penultimate reference <= last reference
  store_.ForEachPage([&](uint32_t slot, PageId) {
    dirty += meta_[slot].dirty;
    ordered = ordered &&
              victim_order_.primary(slot) <= victim_order_.tick(slot);
  });
  if (!ordered) return Status::Internal("LC reference history out of order");
  if (dirty != dirty_count_) {
    return Status::Internal("LC dirty count out of sync");
  }
  return Status::OK();
}

}  // namespace face
