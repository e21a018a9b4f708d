#include "core/cache_ext.h"
#include "core/delta_ring.h"
#include "storage/db_storage.h"

namespace face {

void CacheStats::MirrorDelta(const DeltaRingStats& ring) {
  delta_records = ring.records;
  delta_record_bytes = ring.record_bytes;
  delta_block_writes = ring.block_writes;
  delta_consolidations = ring.consolidations;
}

Status NullCache::OnDramEvict(PageId page_id, char* page, bool dirty,
                              bool fdirty, Lsn rec_lsn, DeltaWriteHint* hint) {
  (void)fdirty;
  (void)rec_lsn;
  (void)hint;
  if (!dirty) return Status::OK();
  ++stats_.dirty_evictions;
  ++stats_.disk_writes;
  return storage_->WritePage(page_id, page);
}

}  // namespace face
