#include "core/tac_cache.h"

#include <cassert>

#include "core/admission_obs.h"

namespace face {

namespace {

/// "core.tac.*" handles: temperature-gated admission and victim churn.
AdmissionObs& GetTacObs() {
  thread_local AdmissionObs o("core.tac");
  return o;
}

}  // namespace

TacCache::TacCache(const TacOptions& options, SimDevice* flash,
                   DbStorage* storage)
    : options_(options),
      dir_blocks_(DirBlocksFor(options.n_frames)),
      flash_(flash),
      storage_(storage),
      store_(options.n_frames, dir_blocks_, flash, storage, &stats_),
      victim_order_(&store_) {
  assert(options_.extent_pages >= 1);
  scratch_.resize(kPageSize);
}

void TacCache::ResetMap() {
  victim_order_.Clear();
  extent_temp_.Clear();
  clock_ = 0;
}

Status TacCache::Format() {
  ResetMap();
  // Zero the whole directory region in one sequential write.
  std::string zeros(static_cast<size_t>(dir_blocks_) * kPageSize, '\0');
  FACE_RETURN_IF_ERROR(flash_->WriteBatch(
      0, static_cast<uint32_t>(dir_blocks_), zeros.data()));
  stats_.meta_flash_writes += dir_blocks_;
  return store_.Format();
}

Status TacCache::WriteDirEntry(uint64_t slot, PageId page_id, bool occupied) {
  // Persist the one entry by rewriting its 4 KB directory block — the
  // "update an entry in the slot directory" random write of paper §4.1.
  const uint64_t block = slot / kEntriesPerBlock;
  const uint64_t offset =
      (slot % kEntriesPerBlock) * FlashMetaEntry::kEncodedSize;
  FACE_RETURN_IF_ERROR(flash_->Read(block, scratch_.data()));
  ++stats_.flash_reads;
  FlashMetaEntry e;
  e.page_id = page_id;
  e.dirty = false;  // write-through: flash never holds dirty data
  e.occupied = occupied;
  e.EncodeTo(scratch_.data() + offset);
  ++stats_.meta_flash_writes;
  return flash_->Write(block, scratch_.data());
}

StatusOr<FlashReadResult> TacCache::ReadPage(PageId page_id, char* out) {
  const uint32_t slot = store_.SlotOf(page_id);
  if (slot == SlotStore::kNoSlot) {
    return Status::NotFound("page not in TAC cache");
  }
  FACE_ASSIGN_OR_RETURN(const uint64_t version, store_.ReadFrame(slot, out));
  // Cache hits heat the extent and refresh this page's standing; the old
  // key goes stale in place.
  Stand(slot, Heat(page_id));
  victim_order_.MaybeCompact();
  FlashReadResult result{false, kInvalidLsn};  // write-through: never dirty
  result.flash_version = version;
  return result;
}

Status TacCache::OnFetchFromDisk(PageId page_id, const char* page,
                                 uint64_t* admitted_version) {
  const uint64_t temp = Heat(page_id);
  if (Contains(page_id)) return Status::OK();  // defensive; shouldn't happen

  if (!store_.HasFree()) {
    // Temperature gate: replace the coldest cached page only if the
    // incoming page's extent is strictly hotter.
    SlotVictimOrder::Key coldest;
    if (!victim_order_.PeekMin(&coldest)) {
      return Status::Internal("TAC victim order empty");
    }
    if (temp <= std::get<0>(coldest)) return Status::OK();
    victim_order_.PopMin();
    FACE_RETURN_IF_ERROR(Invalidate(std::get<2>(coldest)));
  }

  FACE_ASSIGN_OR_RETURN(const uint32_t slot,
                        store_.Admit(page_id, page, admitted_version));
  FACE_RETURN_IF_ERROR(WriteDirEntry(slot, page_id, true));  // validation
  Stand(slot, temp);
  ++stats_.enqueues;
  if (obs::Enabled()) GetTacObs().admissions->Increment();
  return Status::OK();
}

Status TacCache::Invalidate(uint32_t slot) {
  // No heap maintenance: the key goes stale when the page leaves the store
  // (the replacement path already popped it; the checkpoint path leaves it
  // for lazy discard).
  store_.Release(slot);
  if (obs::Enabled()) GetTacObs().invalidations->Increment();
  // Persist the invalidation — the first of the two random metadata writes
  // TAC pays per replacement.
  return WriteDirEntry(slot, kInvalidPageId, false);
}

Status TacCache::OnDramEvict(PageId page_id, char* page, bool dirty,
                             bool fdirty, Lsn rec_lsn, DeltaWriteHint* hint) {
  (void)rec_lsn;
  if (!dirty) return Status::OK();  // clean pages were cached on entry
  ++stats_.dirty_evictions;
  if (obs::Enabled()) GetTacObs().dirty_evictions->Increment();
  // Write-through: disk first, then keep a cached copy coherent.
  FACE_RETURN_IF_ERROR(storage_->WritePage(page_id, page));
  ++stats_.disk_writes;
  const uint32_t slot = store_.SlotOf(page_id);
  if (slot == SlotStore::kNoSlot || !fdirty) return Status::OK();
  // A small refresh against the chain tip becomes a delta record (dirty =
  // false: the disk write above already made disk current) instead of an
  // in-place (random) full-frame rewrite.
  FACE_ASSIGN_OR_RETURN(const bool refreshed,
                        store_.TryDeltaRefresh(slot, page, hint, false));
  if (refreshed) return Status::OK();
  return store_.Rewrite(slot, page);
}

void TacCache::OnPageWrittenToDisk(PageId page_id) {
  // Checkpoint wrote the page without handing us bytes: the flash copy is
  // stale, so it must be invalidated (persistently). A failed metadata
  // write is ignored deliberately — the in-memory drop already guarantees
  // the stale copy can never be served.
  const uint32_t slot = store_.SlotOf(page_id);
  if (slot != SlotStore::kNoSlot) (void)Invalidate(slot);
}

Status TacCache::RecoverAfterCrash() {
  ResetMap();
  // One sequential sweep over the slot directory rebuilds the map.
  std::string dir(static_cast<size_t>(dir_blocks_) * kPageSize, '\0');
  FACE_RETURN_IF_ERROR(flash_->ReadBatch(
      0, static_cast<uint32_t>(dir_blocks_), dir.data()));
  stats_.flash_reads += dir_blocks_;
  // A second sequential sweep validates the frames themselves: the
  // write-through in-place refresh (OnDramEvict) updates a frame without
  // touching its directory entry, so a crash can tear a frame that the
  // directory still advertises as valid. Dropping such a slot is always
  // safe — write-through means disk holds the current copy.
  FACE_RETURN_IF_ERROR(store_.Rebuild(
      [&dir](uint32_t slot) {
        const FlashMetaEntry e = FlashMetaEntry::DecodeFrom(
            dir.data() + (slot / kEntriesPerBlock) * kPageSize +
            (slot % kEntriesPerBlock) * FlashMetaEntry::kEncodedSize);
        return e.occupied ? e.page_id : kInvalidPageId;
      },
      [this](uint32_t slot) {
        // Persist the invalidation so the next restart's sweep skips it.
        FACE_RETURN_IF_ERROR(WriteDirEntry(slot, kInvalidPageId, false));
        ++stats_.invalidations;
        return Status::OK();
      },
      // Delta fencing: a frame with surviving media delta records is a
      // *stale base* — the crash-time tip lived in the delta chain, not the
      // frame. Reconstructing tips here would be wasted motion (write-
      // through means disk already holds every committed byte), so
      // conservatively drop such slots and let demand fetches repopulate
      // them. Pre-checkpoint records are guaranteed on media by
      // OnCheckpoint's Flush; records lost after the last checkpoint heal
      // through restart redo plus the restart-end checkpoint's
      // OnPageWrittenToDisk invalidation — the same window TAC already
      // tolerates for torn in-place refreshes.
      [this](uint32_t slot) { return Invalidate(slot); }));
  // Temperatures do not survive a crash; ages follow slot order.
  store_.ForEachPage([this](uint32_t slot, PageId) { Stand(slot, 0); });
  return Status::OK();
}

Status TacCache::ScrubSome(uint64_t max_frames, ScrubResult* out) {
  // Write-through: disk holds the chain tip of every frame.
  return store_.Scrub(max_frames, out);
}

Status TacCache::CheckInvariants() const {
  FACE_RETURN_IF_ERROR(store_.CheckInvariants());
  if (!victim_order_.InSync()) {
    return Status::Internal("TAC victim order out of sync with index");
  }
  return Status::OK();
}

}  // namespace face
