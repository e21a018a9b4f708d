#include "recovery/checkpointer.h"

#include "obs/trace.h"

namespace face {

StatusOr<Lsn> Checkpointer::TakeCheckpoint() {
  // Component "checkpoint", not "recovery": the recovery category is
  // reserved for the restart phases, one of which runs this very code.
  obs::ScopedSpan span("checkpoint", "take_checkpoint");

  // 1. Non-persistent write-back caches stage their flash-dirty pages to
  //    disk first, so that "all dirty pages synced" below really covers
  //    everything the post-checkpoint redo will skip.
  CacheExtension* cache = pool_->cache();
  FACE_RETURN_IF_ERROR(cache->PrepareCheckpoint());

  // 2. Log BEGIN with the dirty-page and active-transaction tables plus the
  //    page allocator's high-water mark.
  LogRecord begin;
  begin.type = LogRecordType::kCheckpointBegin;
  begin.next_page_id = storage_->next_page_id();
  begin.dirty_pages = pool_->CollectDirtyPages();
  begin.active_txns = txns_->ActiveTxns();
  const Lsn begin_lsn = log_->Append(&begin);
  stats_.dpt_pages += begin.dirty_pages.size();

  // 3. Make every dirty DRAM page persistent — into the flash cache when
  //    the policy absorbs it (FaCE), else to disk.
  FACE_RETURN_IF_ERROR(pool_->SyncDirtyPagesForCheckpoint());
  FACE_RETURN_IF_ERROR(cache->OnCheckpoint());

  // 4. Log END, force, and only then advertise the checkpoint: a crash
  //    before the control-block write falls back to the previous one. The
  //    control record also carries the cache's durability exposure: the
  //    degraded marker (the pool serves disk-only) and the flash redo floor
  //    — the lowest WAL LSN still needed to rebuild a page whose newest
  //    version lives only on flash.
  LogRecord end;
  end.type = LogRecordType::kCheckpointEnd;
  end.prev_lsn = begin_lsn;
  const Lsn end_lsn = log_->Append(&end);
  FACE_RETURN_IF_ERROR(log_->FlushTo(end_lsn));
  const Lsn flash_floor = cache->FlashRedoFloor();
  WalControlInfo info;
  info.checkpoint_lsn = begin_lsn;
  info.degraded = pool_->disk_only();
  info.rebuild_floor = flash_floor;
  FACE_RETURN_IF_ERROR(log_->WriteControlInfo(info));
  // 5. Recycle log space: nothing before this checkpoint's BEGIN will be
  //    read again, as long as no still-active transaction's undo chain
  //    reaches back past it — and no flash-only dirty page's rebuild floor
  //    sits below it (losing those records would make a later flash loss
  //    unrecoverable).
  Lsn keep = begin_lsn;
  if (flash_floor != kInvalidLsn && flash_floor < keep) keep = flash_floor;
  if (begin.active_txns.empty()) log_->TruncateBefore(keep);
  ++stats_.checkpoints;
  if (obs::Enabled()) {
    auto& reg = obs::MetricsRegistry::Instance();
    thread_local obs::Counter* ckpts = reg.GetCounter("checkpoint.checkpoints");
    thread_local obs::Hist* dpt = reg.GetHistogram("checkpoint.dpt_pages");
    ckpts->Increment();
    dpt->Add(begin.dirty_pages.size());
  }
  return begin_lsn;
}

}  // namespace face
