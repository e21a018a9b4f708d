// Crash recovery (paper §4.2): ARIES-style analysis / redo / undo, with the
// flash cache restored *first* so that page fetches during redo and undo hit
// flash instead of disk — the mechanism behind the paper's 4x-faster restart
// (Table 6) and its ">98% of recovery pages came from flash" observation.
//
// Restart sequence:
//   0. attach to the durable log (locates the valid end of log)
//   1. restore the cache extension's metadata (FaCE: persisted segments +
//      bounded raw-frame scan; TAC: slot directory sweep; LC/none: cold)
//   2. analysis: scan from the last complete checkpoint's BEGIN, building
//      the loser-transaction table
//   3. redo: replay history from the checkpoint (pageLSN test makes
//      replaying idempotent)
//   4. undo: roll back losers in reverse-LSN order, logging CLRs
//   5. final checkpoint, so a crash during recovery never lengthens the log
// Every phase's virtual time is reported separately.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "common/types.h"
#include "recovery/checkpointer.h"
#include "sim/scheduler.h"
#include "txn/transaction_manager.h"
#include "wal/log_manager.h"

namespace face {

/// Outcome and cost breakdown of one restart.
struct RestartReport {
  Lsn checkpoint_lsn = kInvalidLsn;  ///< last complete checkpoint's BEGIN
  /// The control block said the crash happened while the flash cache was
  /// lost: the cache metadata was not restored (the device's contents are
  /// untrusted) and the buffer pool comes up serving disk-only.
  bool degraded = false;
  uint64_t analysis_records = 0;
  uint64_t redo_records = 0;   ///< update/CLR records examined
  uint64_t redo_applied = 0;   ///< records whose effects were re-applied
  uint64_t losers = 0;         ///< transactions rolled back
  uint64_t undo_records = 0;   ///< records undone (CLRs written)
  uint64_t pages_fetched = 0;  ///< buffer misses during recovery
  uint64_t pages_from_flash = 0;
  uint64_t pages_from_disk = 0;

  SimNanos attach_ns = 0;        ///< locate end of log
  SimNanos meta_restore_ns = 0;  ///< cache-extension metadata restore
  SimNanos analysis_ns = 0;
  SimNanos redo_ns = 0;
  SimNanos undo_ns = 0;
  SimNanos checkpoint_ns = 0;  ///< final checkpoint
  SimNanos total_ns = 0;

  /// Fraction of recovery page fetches served by the flash cache.
  double FlashFetchFraction() const {
    return pages_fetched
               ? static_cast<double>(pages_from_flash) /
                     static_cast<double>(pages_fetched)
               : 0.0;
  }

  std::string ToString() const;
};

/// ARIES redo: one scan from `from` to the end of the durable log. Every
/// update/CLR record whose page passes `wanted` (every page when empty)
/// counts in *scanned and is re-applied through `pool` unless the page's
/// LSN shows its effect is already there (counted in *applied). The one
/// redo loop of both restart and the flash-loss rebuild.
Status RedoFrom(LogManager* log, BufferPool* pool, DbStorage* storage,
                Lsn from, const std::function<bool(PageId)>& wanted,
                uint64_t* scanned, uint64_t* applied);

/// Restart orchestrator; see file comment. Construct over *fresh* DRAM
/// structures (buffer pool, transaction manager) and *surviving* devices.
class RestartManager {
 public:
  /// `sched` may be null (tests that do not care about virtual time).
  /// `bg_token` is the scheduler background token recovery runs on.
  /// The cache restored in phase 1 is the pool's active one.
  RestartManager(LogManager* log, BufferPool* pool, TransactionManager* txns,
                 DbStorage* storage, IoScheduler* sched = nullptr,
                 uint32_t bg_token = 0)
      : log_(log), pool_(pool), txns_(txns), storage_(storage),
        sched_(sched), bg_token_(bg_token) {}

  /// Run full crash recovery. On success the system is consistent: all
  /// committed work is present, all loser work is rolled back.
  StatusOr<RestartReport> Run();

 private:
  /// All phases, run inside the scheduler span opened by Run().
  Status RunPhases(RestartReport* report);
  Status Analysis(RestartReport* report, Lsn ckpt_lsn,
                  std::map<TxnId, Lsn>* losers);
  Status Undo(RestartReport* report, std::map<TxnId, Lsn>* losers);

  /// Current virtual time of the active recovery span (0 without sched).
  SimNanos SpanTime() const {
    return sched_ != nullptr ? sched_->span_time() : 0;
  }

  LogManager* log_;
  BufferPool* pool_;
  TransactionManager* txns_;
  DbStorage* storage_;
  IoScheduler* sched_;
  uint32_t bg_token_;
};

}  // namespace face
