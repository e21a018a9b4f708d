// Crash-storm harness: turns the testbed + fault injector + shadow workload
// + differential checker into one repeatable experiment. One storm =
//
//   clone the golden image -> warm up (maybe checkpoint) -> strand a few
//   in-flight transactions -> arm the injector at a seeded-random crash
//   point -> run until power fails (checkpoints interleaved, so crashes
//   land inside them too) -> Crash() -> Recover() -> differential check +
//   flash-directory audit -> resume and re-check.
//
// Everything is derived deterministically from the storm seed, so a failing
// seed replays exactly. The harness works against any cache policy; with
// Sabotage the recovery path is deliberately broken to demonstrate that the
// checker catches a recovery that silently loses data.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/histogram.h"
#include "common/status.h"
#include "fault/diff_checker.h"
#include "fault/fault_injector.h"
#include "fault/shadow_kv.h"
#include "testbed/testbed.h"

namespace face {

/// Accumulates per-phase recovery durations across a storm campaign, one
/// RestartReport per seed. Derived from the reports directly (not the obs
/// registry), so the aggregate works with observability off.
struct RecoveryPhaseAggregate {
  Histogram attach_us, meta_restore_us, analysis_us, redo_us, undo_us,
      checkpoint_us, total_us;

  void Record(const RestartReport& r);
  uint64_t restarts() const { return total_us.count(); }

  /// Multi-line per-phase summary (count/mean/p95/max in microseconds).
  std::string ToString() const;
};

/// Deliberate recovery breakage, to prove the checker has teeth.
enum class Sabotage : uint8_t {
  kNone = 0,
  /// Wipe the flash-cache superblock after the crash: FaCE cold-formats
  /// instead of restoring its metadata, losing every page whose only
  /// current copy lived in flash — the checker must report divergences.
  kWipeFlashSuperblock,
};

/// Shape of one storm campaign (shared by all seeds run through a harness).
struct CrashStormOptions {
  CachePolicy policy = CachePolicy::kFace;
  fault::ShadowKvOptions workload;

  uint32_t clients = 8;
  uint32_t buffer_frames = 64;   ///< small on purpose: evictions drive flash
  uint64_t flash_pages = 512;
  uint32_t seg_entries = 256;    ///< small FaCE segments: more boundaries
  uint64_t warmup_ops = 250;
  uint64_t body_ops = 350;       ///< armed window the crash point lands in
  uint32_t stranded_txns = 2;
  uint64_t post_ops = 60;        ///< post-recovery survivability run
  Sabotage sabotage = Sabotage::kNone;
  /// Percent of storms that keep the injector armed *through* recovery, so
  /// power fails again while redo/undo is writing — the restart after that
  /// starts from the torn remains of the first restart. 0 disables.
  uint32_t double_fault_pct = 30;
};

/// Everything one storm produced.
struct CrashStormResult {
  bool crashed_mid_body = false;  ///< injector tripped (vs quiescent crash)
  bool double_faulted = false;    ///< a recovery attempt was itself cut down
  CrashSite site;
  RestartReport restart;          ///< the restart that finally succeeded
  fault::DiffReport diff;

  std::string ToString() const;
};

/// The harness; see file comment. Builds its golden image lazily on the
/// first storm and reuses it for every seed.
class CrashStormHarness {
 public:
  explicit CrashStormHarness(const CrashStormOptions& options);

  /// Run one full storm. Non-OK only for rig failures (a crash the
  /// injector did not cause, recovery erroring out); data divergences are
  /// reported in the result, not as errors.
  StatusOr<CrashStormResult> RunStorm(uint64_t seed);

  const CrashStormOptions& options() const { return opts_; }

  /// Per-phase recovery durations across every storm this harness ran.
  const RecoveryPhaseAggregate& phase_aggregate() const { return phases_; }

 private:
  Status EnsureGolden();

  CrashStormOptions opts_;
  RecoveryPhaseAggregate phases_;
  std::shared_ptr<fault::ShadowState> shadow_;
  std::shared_ptr<fault::ShadowKvFactory> factory_;
  GoldenImage golden_;
  bool golden_ready_ = false;
};

}  // namespace face
