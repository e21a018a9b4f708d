// The checkable workload behind the crash storm: a KV workload (over the
// same heap + B+tree wiring as YCSB) that mirrors every *committed*
// transaction into a shadow logical table kept outside the simulated
// machine. DRAM dies at a crash; the shadow does not — after restart the
// differential checker compares the recovered engine state row-for-row
// against it.
//
// The one transaction in flight when power fails is recorded as *in-doubt*:
// its commit record may or may not have reached the durable prefix of the
// WAL, so the recovered row is legitimately either the old or the new
// version (torn-tail ambiguity is inherent, not a bug). Injected stranded
// transactions are different: they never tried to commit, so recovery must
// roll them back — the shadow keeps expecting the old version, and their
// keys are withheld from subsequent operations so undo's before-images
// cannot clobber later committed work.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "workload/kv_table.h"
#include "workload/workload.h"

namespace face {
namespace fault {

/// The mutation in flight at the crash point (at most one: the engine is
/// single-threaded, so exactly one transaction can be cut mid-commit).
struct PendingOp {
  enum class Kind : uint8_t { kNone, kUpdate, kInsert };
  Kind kind = Kind::kNone;
  uint64_t key = 0;
  uint64_t old_version = 0;  ///< kUpdate: committed version before the op
  uint64_t new_version = 0;
  /// True once db.Commit was invoked. Until then the crash cannot have made
  /// the operation durable, so rollback is the only legal outcome — this is
  /// what lets the checker catch an undo path that forgets the final
  /// in-flight transaction.
  bool commit_attempted = false;
};

/// The shadow logical table. Lives in the harness (outside the simulated
/// machine), shared by every workload incarnation across crashes.
struct ShadowState {
  uint64_t base_records = 0;
  uint32_t value_bytes = 0;
  /// versions[id] = committed payload version of key id; keys are dense
  /// [0, versions.size()) — inserts append.
  std::vector<uint64_t> versions;
  PendingOp pending;
  /// Keys held by injected stranded (never-committed) transactions.
  std::set<uint64_t> stranded;
  /// Monotonic version counter; never reused across crashes, so every
  /// distinct committed state has a distinct row image.
  uint64_t next_version = 1;

  /// Back to the golden image's state (all keys at version 0).
  void Reset(uint64_t records, uint32_t value_bytes_);

  uint64_t population() const { return versions.size(); }
};

/// Operation mix of the shadow workload (percent, must sum to 100).
/// Defaults are write-heavy: recovery work scales with mutations.
struct ShadowKvOptions {
  uint64_t records = 1200;
  uint32_t value_bytes = 160;
  int pct_read = 30;
  int pct_update = 55;
  int pct_insert = 10;
  int pct_scan = 5;
  uint32_t max_scan_rows = 16;
};

/// The shadow-tracked KV driver; see file comment.
class ShadowKvWorkload : public workload::Workload {
 public:
  enum TxnType : uint8_t { kRead = 0, kUpdate = 1, kInsert = 2, kScan = 3 };

  ShadowKvWorkload(const ShadowKvOptions& options, ShadowState* state);

  const char* name() const override { return "shadow-kv"; }
  uint32_t num_txn_types() const override { return 4; }
  const char* txn_type_name(uint8_t type) const override;

  Status Setup(Database& db, uint64_t seed) override;
  StatusOr<uint8_t> NextTxn(Database& db, Random& rnd) override;
  Status InjectStranded(Database& db, Random& rnd) override;
  /// Live-rollback resolution: the supervisor aborted the in-flight
  /// transaction on the running engine (no crash, no checker sweep), so the
  /// pending op resolves here, against the actual row — rollback is the
  /// only legal outcome for a transaction that never completed its commit.
  Status OnInflightRolledBack(Database& db) override;

 private:
  /// A key eligible for an operation (stranded keys are withheld).
  uint64_t PickKey(Random& rnd) const;

  ShadowKvOptions opts_;
  ShadowState* state_;
  workload::KvTable table_;
  /// Reused buffer for the row image a verified read must equal.
  std::string expected_row_;
};

/// Builds golden images (identical to a YCSB load at version 0) and
/// shadow-tracked drivers sharing one ShadowState.
class ShadowKvFactory : public workload::WorkloadFactory {
 public:
  ShadowKvFactory(const ShadowKvOptions& options,
                  std::shared_ptr<ShadowState> state)
      : opts_(options), state_(std::move(state)) {}

  const char* name() const override { return "shadow-kv"; }
  uint64_t CapacityPages() const override;
  Status Load(Database& db, uint64_t seed) const override;
  std::unique_ptr<workload::Workload> Create() const override;

  const ShadowKvOptions& options() const { return opts_; }

 private:
  ShadowKvOptions opts_;
  std::shared_ptr<ShadowState> state_;
};

}  // namespace fault
}  // namespace face
