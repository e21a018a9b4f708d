// Database checkpointing with cache-policy routing (paper §4.1).
//
// A checkpoint bounds redo work by making dirty pages persistent. Where
// they become persistent depends on the cache policy:
//   - FaCE: dirty DRAM pages are *enqueued to the flash cache* (sequential
//     writes) and flash-resident pages are never subject to checkpointing —
//     the flash cache is inside the persistent database.
//   - LC: the flash cache is volatile metadata-wise, so its dirty pages
//     must first be staged to disk (PrepareCheckpoint), then DRAM dirty
//     pages are written to disk too. This is the checkpointing cost the
//     paper charges to LC.
//   - TAC / Exadata / none, and disk-only service after a flash loss:
//     write-through or no cache; DRAM dirty pages go to disk.
// The sequence is PostgreSQL-flavored: log CHECKPOINT_BEGIN carrying the
// DPT/ATT/allocator, sync every dirty page, log CHECKPOINT_END, then point
// the control block at BEGIN. Redo after a crash starts at the BEGIN of the
// last *complete* checkpoint.
#pragma once

#include <cstdint>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace face {

/// Checkpoint orchestrator; see file comment.
class Checkpointer {
 public:
  struct Stats {
    uint64_t checkpoints = 0;
    uint64_t dpt_pages = 0;  ///< dirty pages captured across all checkpoints
  };

  /// The cache the checkpoint routes through is the pool's active one.
  Checkpointer(LogManager* log, BufferPool* pool, TransactionManager* txns,
               DbStorage* storage)
      : log_(log), pool_(pool), txns_(txns), storage_(storage) {}

  /// Run one full checkpoint; returns the BEGIN record's LSN (the redo
  /// point a subsequent restart will use).
  StatusOr<Lsn> TakeCheckpoint();

  const Stats& stats() const { return stats_; }

 private:
  LogManager* log_;
  BufferPool* pool_;
  TransactionManager* txns_;
  DbStorage* storage_;
  Stats stats_;
};

}  // namespace face
