#include "testbed/crash_storm.h"

#include <algorithm>
#include <sstream>

namespace face {

void RecoveryPhaseAggregate::Record(const RestartReport& r) {
  attach_us.Add(r.attach_ns / 1000);
  meta_restore_us.Add(r.meta_restore_ns / 1000);
  analysis_us.Add(r.analysis_ns / 1000);
  redo_us.Add(r.redo_ns / 1000);
  undo_us.Add(r.undo_ns / 1000);
  checkpoint_us.Add(r.checkpoint_ns / 1000);
  total_us.Add(r.total_ns / 1000);
}

std::string RecoveryPhaseAggregate::ToString() const {
  std::ostringstream os;
  os << "recovery phases over " << restarts() << " restarts (us):";
  const struct {
    const char* name;
    const Histogram* h;
  } rows[] = {
      {"attach", &attach_us},   {"meta_restore", &meta_restore_us},
      {"analysis", &analysis_us}, {"redo", &redo_us},
      {"undo", &undo_us},       {"checkpoint", &checkpoint_us},
      {"total", &total_us},
  };
  for (const auto& row : rows) {
    os << "\n  " << row.name << ": " << row.h->ToString();
  }
  return os.str();
}

std::string CrashStormResult::ToString() const {
  std::ostringstream os;
  os << (crashed_mid_body ? site.ToString() : "crash: quiescent point")
     << (double_faulted ? " (+ crash during recovery)" : "")
     << "\n" << restart.ToString() << "\n" << diff.ToString();
  return os.str();
}

CrashStormHarness::CrashStormHarness(const CrashStormOptions& options)
    : opts_(options),
      shadow_(std::make_shared<fault::ShadowState>()),
      factory_(std::make_shared<fault::ShadowKvFactory>(options.workload,
                                                        shadow_)) {}

Status CrashStormHarness::EnsureGolden() {
  if (golden_ready_) return Status::OK();
  FACE_ASSIGN_OR_RETURN(golden_, GoldenImage::BuildFor(factory_));
  golden_ready_ = true;
  return Status::OK();
}

StatusOr<CrashStormResult> CrashStormHarness::RunStorm(uint64_t seed) {
  FACE_RETURN_IF_ERROR(EnsureGolden());
  shadow_->Reset(opts_.workload.records, opts_.workload.value_bytes);

  Random rnd(seed * 0x9e3779b97f4a7c15ull + 0x5707 /* storm */);

  TestbedOptions to;
  to.clients = opts_.clients;
  to.seed = seed;
  to.workload = factory_;
  to.buffer_frames = opts_.buffer_frames;
  to.flash_pages = opts_.flash_pages;
  to.seg_entries = opts_.seg_entries;
  to.policy = opts_.policy;
  Testbed tb(to, &golden_);
  FACE_RETURN_IF_ERROR(tb.Start());

  FaultInjector inj;
  inj.AttachScheduler(tb.sched());
  // The data array is page-atomic (full-page-write protection, as the
  // paper's PostgreSQL substrate provides); the WAL and flash cache tear
  // at sector boundaries — their formats must cope.
  inj.SetTearGranularity(tb.db_dev()->id(), TearGranularity::kPageAtomic);
  tb.db_dev()->set_fault_injector(&inj);
  tb.log_dev()->set_fault_injector(&inj);
  if (tb.flash_dev() != nullptr) tb.flash_dev()->set_fault_injector(&inj);

  // --- warm up (committed work before the storm) ---------------------------
  const uint64_t writes0 = inj.writes_observed();
  {
    RunOptions warm;
    warm.txns = opts_.warmup_ops;
    FACE_RETURN_IF_ERROR(tb.Run(warm).status());
  }
  if (rnd.PercentTrue(70)) {
    FACE_RETURN_IF_ERROR(tb.db()->TakeCheckpoint().status());
  }
  if (opts_.stranded_txns > 0) {
    FACE_RETURN_IF_ERROR(tb.InjectInflightTransactions(opts_.stranded_txns));
  }

  // --- arm the crash point -------------------------------------------------
  // WAL flushes dominate the raw write stream, so half the seeds target a
  // single device's writes — crash points then land on flash frames,
  // metadata segments, and data-array pages often enough to matter. The
  // countdown window is sized from that device's warmup write rate so
  // crash points spread across the whole armed body, whatever the policy's
  // I/O amplification is. A fraction of the untargeted seeds use the
  // virtual-time trigger instead, cutting at a clock deadline rather than
  // a write ordinal.
  std::string target;
  if (rnd.PercentTrue(50)) {
    const char* candidates[3] = {"flash", "db", "log"};
    // flash twice as likely as db/log: it is the subsystem under test.
    const uint32_t pick = static_cast<uint32_t>(rnd.Uniform(4));
    target = candidates[pick < 2 ? 0 : pick - 1];
    // A device with no warmup traffic (no flash under kNone, an idle disk
    // array under pure write-back) would turn the storm into a no-crash
    // run; fall back to the untargeted stream.
    if (inj.writes_observed_on(target) == 0) target.clear();
  }
  inj.TargetDevice(target);
  const uint64_t warm_writes = std::max<uint64_t>(
      1, target.empty() ? inj.writes_observed() - writes0
                        : inj.writes_observed_on(target));
  const uint64_t est_body_writes = std::max<uint64_t>(
      8, warm_writes * opts_.body_ops / std::max<uint64_t>(1, opts_.warmup_ops));
  if (target.empty() && rnd.PercentTrue(25)) {
    const SimNanos now = tb.sched()->makespan();
    const SimNanos body_ns = std::max<SimNanos>(
        1, now * opts_.body_ops / std::max<uint64_t>(1, opts_.warmup_ops));
    inj.ArmAtTime(now + rnd.Uniform(body_ns), seed);
  } else {
    inj.ArmAfterWrites(1 + rnd.Uniform(est_body_writes), seed);
  }

  // --- run until power fails ----------------------------------------------
  // Warmup write rates overestimate steady-state rates (cold misses, cache
  // fills), so an un-tripped countdown gets up to 3x the nominal body to
  // fire before the storm settles for a quiescent-point crash.
  const uint64_t ckpt_at =
      rnd.PercentTrue(50) ? rnd.Uniform(opts_.body_ops) : UINT64_MAX;
  const uint64_t op_cap = opts_.body_ops * 3;
  Status body;
  for (uint64_t i = 0; i < op_cap && body.ok(); ++i) {
    if (i == ckpt_at) {
      body = tb.db()->TakeCheckpoint().status();
      if (!body.ok()) break;
    }
    RunOptions one;
    one.txns = 1;
    body = tb.Run(one).status();
  }
  if (!body.ok() && !inj.tripped()) {
    return Status::Internal("storm body failed without an injected crash: " +
                            body.ToString());
  }

  CrashStormResult result;
  result.crashed_mid_body = inj.tripped();
  result.site = inj.site();

  // --- crash, recover, check ----------------------------------------------
  FACE_RETURN_IF_ERROR(tb.Crash());
  inj.Disarm();
  if (opts_.sabotage == Sabotage::kWipeFlashSuperblock &&
      tb.flash_dev() != nullptr) {
    FACE_RETURN_IF_ERROR(
        FaultInjector::GarbleBlocks(tb.flash_dev(), 0, 1, '\0'));
  }

  // Crash during recovery: a fraction of seeds re-arm the injector before
  // restart, so power fails again while redo/undo/checkpoint I/O is in
  // flight — the next attempt must recover from the torn remains of the
  // previous one (idempotent redo, CLRs bounding re-undo). Untargeted
  // countdown: recovery's write stream is log + data, not flash-heavy.
  bool rearm = opts_.double_fault_pct > 0 &&
               rnd.PercentTrue(opts_.double_fault_pct);
  if (rearm) inj.TargetDevice("");
  for (uint32_t attempt = 0;; ++attempt) {
    if (rearm) {
      // Recovery's write stream shrank when the restart checkpoint started
      // absorbing pages as packed delta records instead of full flash
      // frames; a 24-write window still lands inside redo/undo/checkpoint
      // I/O for most seeds.
      inj.ArmAfterWrites(1 + rnd.Uniform(24), seed ^ (0xD0B1EFA0u + attempt));
    }
    StatusOr<RestartReport> restart = tb.Recover();
    if (restart.ok()) {
      // The countdown may outlive a short recovery; never let it leak
      // into the differential check or the post-run.
      inj.Disarm();
      result.restart = *std::move(restart);
      break;
    }
    if (!inj.tripped()) return restart.status();  // a rig failure, not ours
    result.double_faulted = true;
    FACE_RETURN_IF_ERROR(tb.Crash());
    inj.Disarm();
    // One double fault per storm: the retry must come up clean, and a
    // bounded loop keeps a recovery that trips endlessly from hanging us.
    rearm = false;
    if (attempt >= 3) {
      return Status::Internal("recovery kept crashing after double fault");
    }
  }
  phases_.Record(result.restart);

  auto checked = [&]() -> StatusOr<fault::DiffReport> {
    // The sweep's I/O is diagnostic, not part of the experiment: free.
    tb.db_dev()->set_timing_enabled(false);
    tb.log_dev()->set_timing_enabled(false);
    if (tb.flash_dev() != nullptr) tb.flash_dev()->set_timing_enabled(false);
    auto r = fault::RunDifferentialCheck(*tb.db(), shadow_.get(), tb.cache());
    tb.db_dev()->set_timing_enabled(true);
    tb.log_dev()->set_timing_enabled(true);
    if (tb.flash_dev() != nullptr) tb.flash_dev()->set_timing_enabled(true);
    return r;
  };
  FACE_ASSIGN_OR_RETURN(result.diff, checked());

  // --- resume: the recovered system must keep working ----------------------
  if (result.diff.ok() && opts_.post_ops > 0) {
    RunOptions post;
    post.txns = opts_.post_ops;
    FACE_RETURN_IF_ERROR(tb.Run(post).status());
    FACE_ASSIGN_OR_RETURN(fault::DiffReport again, checked());
    result.diff.Merge(again);
  }
  return result;
}

}  // namespace face
