#include "fault/shadow_kv.h"

namespace face {
namespace fault {

void ShadowState::Reset(uint64_t records, uint32_t value_bytes_) {
  base_records = records;
  value_bytes = value_bytes_;
  versions.assign(records, 0);
  pending = PendingOp();
  stranded.clear();
  next_version = 1;
}

ShadowKvWorkload::ShadowKvWorkload(const ShadowKvOptions& options,
                                   ShadowState* state)
    : opts_(options), state_(state) {}

const char* ShadowKvWorkload::txn_type_name(uint8_t type) const {
  switch (type) {
    case kRead: return "Read";
    case kUpdate: return "Update";
    case kInsert: return "Insert";
    case kScan: return "Scan";
  }
  return "?";
}

Status ShadowKvWorkload::Setup(Database& db, uint64_t seed) {
  (void)seed;  // request streams come from the testbed's per-client Random
  FACE_ASSIGN_OR_RETURN(table_, workload::KvTable::Open(db));
  // A Setup after recovery means the stranded transactions were rolled
  // back (the shadow already expects their old versions); their keys are
  // eligible again.
  state_->stranded.clear();
  return Status::OK();
}

uint64_t ShadowKvWorkload::PickKey(Random& rnd) const {
  const uint64_t pop = state_->population();
  uint64_t key = rnd.Uniform(pop);
  for (uint64_t i = 0; i < pop && state_->stranded.count(key) != 0; ++i) {
    key = (key + 1) % pop;
  }
  return key;
}

StatusOr<uint8_t> ShadowKvWorkload::NextTxn(Database& db, Random& rnd) {
  if (state_->pending.kind != PendingOp::Kind::kNone) {
    return Status::Internal(
        "shadow-kv: in-doubt operation not resolved before resuming "
        "(run the differential checker after recovery)");
  }
  const int roll = static_cast<int>(rnd.Uniform(100));
  if (roll < opts_.pct_read) {
    const uint64_t key = PickKey(rnd);
    const TxnId txn = db.Begin();
    std::string row;
    const Status s = table_.Read(key, &row);
    if (!s.ok()) {
      (void)db.Abort(txn);
      return s;
    }
    // Live differential check: every read is verified against the shadow,
    // so a lost or resurrected committed update is caught as soon as the
    // workload touches the row, not only at the post-recovery sweep.
    if (!workload::KvTable::IsRow(row, key, state_->value_bytes,
                                  state_->versions[key], &expected_row_)) {
      (void)db.Abort(txn);
      return Status::Corruption("shadow-kv: live read diverged on key " +
                                std::to_string(key));
    }
    ++stats_.rows_read;
    FACE_RETURN_IF_ERROR(db.Commit(txn));
    RecordCompleted(kRead, true);
    return kRead;
  }
  if (roll < opts_.pct_read + opts_.pct_update) {
    const uint64_t key = PickKey(rnd);
    PendingOp& p = state_->pending;
    p.kind = PendingOp::Kind::kUpdate;
    p.key = key;
    p.old_version = state_->versions[key];
    p.new_version = state_->next_version++;
    const TxnId txn = db.Begin();
    PageWriter w = db.Writer(txn);
    Status s = table_.Update(&w, key, state_->value_bytes, p.new_version);
    if (s.ok()) {
      p.commit_attempted = true;
      s = db.Commit(txn);
    }
    if (!s.ok()) return s;  // in flight at the crash: stays in-doubt
    state_->versions[key] = p.new_version;
    p = PendingOp();
    ++stats_.rows_written;
    RecordCompleted(kUpdate, true);
    return kUpdate;
  }
  if (roll < opts_.pct_read + opts_.pct_update + opts_.pct_insert) {
    PendingOp& p = state_->pending;
    p.kind = PendingOp::Kind::kInsert;
    p.key = state_->population();
    p.new_version = state_->next_version++;
    const TxnId txn = db.Begin();
    PageWriter w = db.Writer(txn);
    Status s = table_.Insert(&w, p.key, state_->value_bytes, p.new_version);
    if (s.ok()) {
      p.commit_attempted = true;
      s = db.Commit(txn);
    }
    if (!s.ok()) return s;
    state_->versions.push_back(p.new_version);
    p = PendingOp();
    ++stats_.rows_written;
    RecordCompleted(kInsert, true);
    return kInsert;
  }
  const uint64_t key = PickKey(rnd);
  const uint64_t rows = 1 + rnd.Uniform(opts_.max_scan_rows);
  const TxnId txn = db.Begin();
  const StatusOr<uint64_t> read = table_.Scan(key, rows);
  if (!read.ok()) {
    (void)db.Abort(txn);
    return read.status();
  }
  stats_.rows_read += *read;
  FACE_RETURN_IF_ERROR(db.Commit(txn));
  RecordCompleted(kScan, true);
  return kScan;
}

Status ShadowKvWorkload::OnInflightRolledBack(Database& db) {
  (void)db;
  const PendingOp p = state_->pending;
  state_->pending = PendingOp();
  if (p.kind == PendingOp::Kind::kNone) return Status::OK();

  // A live rollback can only strike a transaction whose commit never
  // completed (the interrupting error surfaced before db.Commit returned,
  // and the supervisor aborted it), so the engine must now show the old
  // state — verify it, like the post-crash checker does.
  std::string row;
  const Status s = table_.Read(p.key, &row);
  const uint32_t vb = state_->value_bytes;
  if (p.kind == PendingOp::Kind::kUpdate) {
    if (s.ok() && workload::KvTable::IsRow(row, p.key, vb, p.old_version,
                                           &expected_row_)) {
      return Status::OK();
    }
    return Status::Corruption(
        "shadow-kv: rolled-back in-flight update of key " +
        std::to_string(p.key) + " did not restore the old version (read: " +
        s.ToString() + ")");
  }
  // kInsert: the key must not exist after the rollback.
  if (s.IsNotFound()) return Status::OK();
  return Status::Corruption("shadow-kv: rolled-back in-flight insert of key " +
                            std::to_string(p.key) +
                            " is still present (read: " + s.ToString() + ")");
}

Status ShadowKvWorkload::InjectStranded(Database& db, Random& rnd) {
  // An applied-but-never-committed update. The shadow keeps the old
  // version (recovery must undo this), and the key is withheld from later
  // operations so undo's physical before-image cannot erase committed work.
  const uint64_t key = PickKey(rnd);
  const TxnId txn = db.Begin();
  PageWriter w = db.Writer(txn);
  FACE_RETURN_IF_ERROR(
      table_.Update(&w, key, state_->value_bytes, state_->next_version++));
  state_->stranded.insert(key);
  return Status::OK();
}

// --- factory -----------------------------------------------------------------

uint64_t ShadowKvFactory::CapacityPages() const {
  const uint64_t row_bytes = 8 + opts_.value_bytes + 8;
  const uint64_t heap_pages =
      opts_.records * row_bytes / (kPageSize / 2) + 64;
  const uint64_t index_pages = opts_.records / 64 + 64;
  return (heap_pages + index_pages) * 3 + 4096;
}

Status ShadowKvFactory::Load(Database& db, uint64_t seed) const {
  (void)seed;  // the image is deterministic: every key at version 0
  PageWriter bulk = db.BulkWriter();
  FACE_ASSIGN_OR_RETURN(workload::KvTable table,
                        workload::KvTable::Create(db, &bulk));
  for (uint64_t id = 0; id < opts_.records; ++id) {
    FACE_RETURN_IF_ERROR(
        table.Insert(&bulk, id, opts_.value_bytes, /*version=*/0));
  }
  return db.CleanShutdown();
}

std::unique_ptr<workload::Workload> ShadowKvFactory::Create() const {
  return std::make_unique<ShadowKvWorkload>(opts_, state_.get());
}

}  // namespace fault
}  // namespace face
