#include "core/slot_store.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "storage/page.h"

namespace face {

namespace {

/// The frame check every read path applies: checksum and page id.
bool FrameHolds(const char* frame, PageId pid) {
  ConstPageView view(frame);
  return view.VerifyChecksum() && view.page_id() == pid;
}

}  // namespace

SlotStore::SlotStore(uint64_t n_frames, uint64_t frame_base, SimDevice* flash,
                     DbStorage* storage, CacheStats* stats)
    : n_frames_(n_frames),
      frame_base_(frame_base),
      flash_(flash),
      storage_(storage),
      stats_(stats),
      delta_(DeltaRingOptions{frame_base + n_frames,
                              static_cast<uint32_t>(
                                  FlashLayout::DeltaBlocksFor(n_frames))},
             flash) {
  assert(n_frames_ >= 2);
  assert(n_frames_ < kNoSlot);
  assert(flash_->capacity_pages() >= DeviceBlocksFor(frame_base, n_frames));
  index_.Reserve(n_frames_);  // steady state never rehashes
  free_.reserve(n_frames_);
  scratch_.resize(kPageSize);
  page_buf_.resize(kPageSize);
  Clear();
  delta_.SetConsolidateFn([this](const std::vector<PageId>& pids) {
    return ConsolidateDeltaPages(pids);
  });
}

void SlotStore::Unmap() {
  index_.Clear();
  slot_page_.assign(n_frames_, kInvalidPageId);
  free_.clear();
  delta_.DropAll();
}

void SlotStore::Clear() {
  Unmap();
  for (uint64_t i = 0; i < n_frames_; ++i) {
    free_.push_back(static_cast<uint32_t>(n_frames_ - 1 - i));
  }
  scrub_cursor_ = 0;
}

Status SlotStore::Format() {
  Clear();
  return RenewRing();
}

Status SlotStore::RenewRing() {
  // Re-format the ring so stale media records can never be confused with
  // this life's.
  FACE_RETURN_IF_ERROR(delta_.Reset());
  stats_->MirrorDelta(delta_.stats());
  return Status::OK();
}

Status SlotStore::Rebuild(const ClaimFn& claimed, const SlotFn& on_torn,
                          const SlotFn& on_stale) {
  Unmap();
  constexpr uint32_t kSweepBatch = 64;
  std::string frames(static_cast<size_t>(kSweepBatch) * kPageSize, '\0');
  for (uint32_t base = 0; base < n_frames_; base += kSweepBatch) {
    const uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(kSweepBatch, n_frames_ - base));
    FACE_RETURN_IF_ERROR(
        flash_->ReadBatch(FrameBlock(base), chunk, frames.data()));
    stats_->flash_reads += chunk;
    for (uint32_t slot = base; slot < base + chunk; ++slot) {
      const PageId pid = claimed(slot);
      const char* frame = &frames[size_t{slot - base} * kPageSize];
      if (pid != kInvalidPageId && FrameHolds(frame, pid)) {
        Bind(pid, slot);
        continue;
      }
      free_.push_back(slot);
      if (pid != kInvalidPageId) FACE_RETURN_IF_ERROR(on_torn(slot));
    }
  }
  // A frame with surviving media delta records is a stale base. Only
  // records based on the page's present slot count: a record whose base is
  // another slot belongs to an older tenancy.
  FACE_ASSIGN_OR_RETURN(const std::vector<DeltaRing::RecoveredRecord> records,
                        delta_.RecoverScan());
  for (const DeltaRing::RecoveredRecord& r : records) {
    const uint32_t slot = SlotOf(r.rec.page_id);
    if (slot != kNoSlot && r.rec.base_version == slot) {
      FACE_RETURN_IF_ERROR(on_stale(slot));
    }
  }
  return RenewRing();
}

Status SlotStore::WriteFrame(uint32_t slot, const char* page) {
  memcpy(scratch_.data(), page, kPageSize);
  PageView view(scratch_.data());
  view.set_page_id(slot_page_[slot]);
  view.StampChecksum();
  ++stats_->flash_writes;
  return flash_->Write(FrameBlock(slot), scratch_.data());
}

StatusOr<uint32_t> SlotStore::Admit(PageId pid, const char* page,
                                    uint64_t* version) {
  assert(HasFree() && !Contains(pid));
  const uint32_t slot = free_.back();
  free_.pop_back();
  slot_page_[slot] = pid;
  if (Status s = WriteFrame(slot, page); !s.ok()) {
    slot_page_[slot] = kInvalidPageId;  // the slot is lost with the device
    return s;
  }
  index_.TryEmplace(pid, slot);
  const uint64_t tip = delta_.BeginFull(pid, slot);
  if (version != nullptr) *version = tip;
  return slot;
}

void SlotStore::Release(uint32_t slot) {
  const PageId pid = slot_page_[slot];
  index_.Erase(pid);
  slot_page_[slot] = kInvalidPageId;
  free_.push_back(slot);
  delta_.Drop(pid);
  ++stats_->invalidations;
}

Status SlotStore::ReadBase(uint32_t slot, char* out) {
  FACE_RETURN_IF_ERROR(flash_->Read(FrameBlock(slot), out));
  ++stats_->flash_reads;
  return Status::OK();
}

Status SlotStore::ReadTip(uint32_t slot, char* out) {
  FACE_RETURN_IF_ERROR(ReadBase(slot, out));
  delta_.ApplyChain(slot_page_[slot], out);
  return Status::OK();
}

StatusOr<uint64_t> SlotStore::ReadFrame(uint32_t slot, char* out) {
  const PageId pid = slot_page_[slot];
  FACE_RETURN_IF_ERROR(ReadBase(slot, out));
  if (!FrameHolds(out, pid)) {
    return Status::Corruption("cache frame failed validation");
  }
  // The frame is the chain base; patch delta refreshes on top and hand the
  // caller the tip version so it can delta against this copy later.
  delta_.ApplyChain(pid, out);
  DeltaRing::ChainView cv;
  return delta_.GetChain(pid, &cv) ? cv.tip_version : kNoFlashVersion;
}

StatusOr<bool> SlotStore::TryDeltaRefresh(uint32_t slot, const char* page,
                                          DeltaWriteHint* hint, bool dirty) {
  FACE_ASSIGN_OR_RETURN(const bool appended,
                        delta_.TryAppend(slot_page_[slot], page, dirty, hint));
  stats_->MirrorDelta(delta_.stats());
  return appended;
}

Status SlotStore::Rewrite(uint32_t slot, const char* page) {
  FACE_RETURN_IF_ERROR(WriteFrame(slot, page));
  delta_.BeginFull(slot_page_[slot], slot);  // the image re-bases the chain
  return Status::OK();
}

Status SlotStore::FlushDeltas() {
  FACE_RETURN_IF_ERROR(delta_.Flush());
  stats_->MirrorDelta(delta_.stats());
  return Status::OK();
}

Status SlotStore::ConsolidateDeltaPages(const std::vector<PageId>& pids) {
  for (PageId pid : pids) {
    const uint32_t slot = SlotOf(pid);
    DeltaRing::ChainView cv;
    if (slot == kNoSlot || !delta_.GetChain(pid, &cv) || cv.len == 0 ||
        cv.base_tag != slot) {
      continue;
    }
    // Rebuild the tip image and rewrite it into the page's frame in place;
    // the full write re-bases the chain, freeing the doomed records.
    FACE_RETURN_IF_ERROR(ReadTip(slot, page_buf_.data()));
    FACE_RETURN_IF_ERROR(Rewrite(slot, page_buf_.data()));
  }
  return Status::OK();
}

Status SlotStore::Scrub(uint64_t max_frames, ScrubResult* out,
                        const TakeDirtyFn& take_dirty) {
  if (max_frames == 0 || index_.empty()) return Status::OK();
  const uint64_t start = scrub_cursor_;
  for (uint64_t k = 0; k < n_frames_ && out->frames_scanned < max_frames;
       ++k) {
    const uint32_t slot = static_cast<uint32_t>((start + k) % n_frames_);
    const PageId pid = slot_page_[slot];
    if (pid == kInvalidPageId) continue;
    scrub_cursor_ = static_cast<uint32_t>((slot + 1) % n_frames_);
    FACE_RETURN_IF_ERROR(ReadBase(slot, page_buf_.data()));
    ++out->frames_scanned;
    if (FrameHolds(page_buf_.data(), pid)) continue;
    if (take_dirty && take_dirty(slot)) continue;
    // Clean frame: the disk copy is the chain tip, so rewriting it as the
    // base keeps any attached delta records correct.
    FACE_RETURN_IF_ERROR(storage_->ReadPage(pid, page_buf_.data()));
    ++stats_->disk_reads;
    FACE_RETURN_IF_ERROR(WriteFrame(slot, page_buf_.data()));
    ++out->clean_repaired;
  }
  return Status::OK();
}

Status SlotStore::CheckInvariants() const {
  if (index_.size() + free_.size() != n_frames_) {
    return Status::Internal("slot store: cached + free != n_frames");
  }
  uint64_t occupied = 0;
  for (uint32_t s = 0; s < n_frames_; ++s) {
    if (slot_page_[s] == kInvalidPageId) continue;
    ++occupied;
    if (SlotOf(slot_page_[s]) != s) {
      return Status::Internal("slot store: reverse map disagrees with index");
    }
  }
  if (occupied != index_.size()) {
    return Status::Internal("slot store: index maps a page to a free slot");
  }
  for (uint32_t s : free_) {
    if (s >= n_frames_ || slot_page_[s] != kInvalidPageId) {
      return Status::Internal("slot store: occupied slot on the free list");
    }
  }
  FACE_RETURN_IF_ERROR(delta_.CheckInvariants());
  Status chains = Status::OK();
  delta_.ForEachChain([&](PageId pid, const DeltaRing::ChainView& cv) {
    if (cv.base_tag != SlotOf(pid)) {
      chains = Status::Internal("slot store: delta chain not based on slot");
    }
  });
  return chains;
}

}  // namespace face
