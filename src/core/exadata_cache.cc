#include "core/exadata_cache.h"

#include <cassert>

#include "core/admission_obs.h"

namespace face {

namespace {

/// "core.exadata.*" handles: clean-only admission and invalidation churn.
AdmissionObs& GetExaObs() {
  thread_local AdmissionObs o("core.exadata");
  return o;
}

}  // namespace

ExadataCache::ExadataCache(uint64_t n_frames, SimDevice* flash,
                           DbStorage* storage)
    : storage_(storage),
      store_(n_frames, /*frame_base=*/0, flash, storage, &stats_),
      links_(n_frames) {
  assert(n_frames <= static_cast<uint64_t>(INT32_MAX));  // int32 LRU links
}

StatusOr<FlashReadResult> ExadataCache::ReadPage(PageId page_id, char* out) {
  const uint32_t slot = store_.SlotOf(page_id);
  if (slot == SlotStore::kNoSlot) {
    return Status::NotFound("page not in Exadata cache");
  }
  FACE_ASSIGN_OR_RETURN(const uint64_t version, store_.ReadFrame(slot, out));
  lru_.MoveToFront(SlotLinks(), slot);
  FlashReadResult result{false, kInvalidLsn};  // clean-only cache
  result.flash_version = version;
  return result;
}

Status ExadataCache::OnFetchFromDisk(PageId page_id, const char* page,
                                     uint64_t* admitted_version) {
  if (Contains(page_id)) return Status::OK();
  // LRU replacement: victims are always clean, so they are just dropped.
  if (!store_.HasFree()) DropSlot(static_cast<uint32_t>(lru_.tail()));
  FACE_ASSIGN_OR_RETURN(const uint32_t slot,
                        store_.Admit(page_id, page, admitted_version));
  lru_.PushFront(SlotLinks(), slot);
  ++stats_.enqueues;
  if (obs::Enabled()) GetExaObs().admissions->Increment();
  return Status::OK();
}

Status ExadataCache::OnDramEvict(PageId page_id, char* page, bool dirty,
                                 bool fdirty, Lsn rec_lsn,
                                 DeltaWriteHint* hint) {
  (void)fdirty;
  (void)rec_lsn;
  if (!dirty) return Status::OK();
  ++stats_.dirty_evictions;
  if (obs::Enabled()) GetExaObs().dirty_evictions->Increment();
  FACE_RETURN_IF_ERROR(storage_->WritePage(page_id, page));
  ++stats_.disk_writes;
  const uint32_t slot = store_.SlotOf(page_id);
  if (slot == SlotStore::kNoSlot) return Status::OK();
  // Page-differential path: a small update whose chain tip matches the
  // cached copy becomes a delta record (dirty = false — disk stays
  // current) and the page keeps serving read hits. Otherwise fall back to
  // the classic clean-only behavior: invalidate rather than update.
  FACE_ASSIGN_OR_RETURN(const bool refreshed,
                        store_.TryDeltaRefresh(slot, page, hint, false));
  if (!refreshed) DropSlot(slot);
  return Status::OK();
}

void ExadataCache::OnPageWrittenToDisk(PageId page_id) {
  const uint32_t slot = store_.SlotOf(page_id);
  if (slot != SlotStore::kNoSlot) DropSlot(slot);
}

void ExadataCache::DropSlot(uint32_t slot) {
  lru_.Remove(SlotLinks(), slot);
  store_.Release(slot);
  if (obs::Enabled()) GetExaObs().invalidations->Increment();
}

Status ExadataCache::RecoverAfterCrash() {
  // The DRAM directory is gone, and delta chains are part of it.
  lru_.Clear();
  links_.assign(links_.size(), IntrusiveLinks());
  return store_.Format();
}

Status ExadataCache::ScrubSome(uint64_t max_frames, ScrubResult* out) {
  // Clean-only cache: disk holds the chain tip of every frame.
  return store_.Scrub(max_frames, out);
}

Status ExadataCache::CheckInvariants() const {
  FACE_RETURN_IF_ERROR(store_.CheckInvariants());
  uint64_t chained = 0;
  for (int32_t i = lru_.head(); i >= 0; i = links_[i].next) {
    ++chained;
    // The store audits slot <-> page; an LRU slot only has to be occupied.
    if (store_.PageAt(static_cast<uint32_t>(i)) == kInvalidPageId) {
      return Status::Internal("Exadata LRU holds a free slot");
    }
    if (chained > store_.n_frames()) {
      return Status::Internal("Exadata LRU chain cycles");
    }
  }
  if (store_.size() != chained) {
    return Status::Internal("Exadata index / LRU size mismatch");
  }
  return Status::OK();
}

}  // namespace face
