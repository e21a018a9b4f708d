// The repository benchmark: one single-threaded process runs one named
// workload over a fresh in-process golden image and prints every metric by
// name and unit, then one JSON result line (see README.md beside this file).
//
//   facebench --workload tpcc|ycsb-b-zipf|crash-recovery --seed N
//             --seconds S [--trace-out FILE] [--tiny] [--corrupt-shadow]
//
// Without --trace-out the run is untraced: obs is off, only coarse spans
// are timed, and the result carries the end-to-end metrics. With it, obs
// counters and per-transaction spans are on, the spans are written to FILE
// as Chrome trace-event JSON, and the result carries the per-layer metrics.
//
// Every cell clones the golden image, warms up, then repeats a cycle: a
// measured batch and, on crash-recovery only, a restart: run until the
// virtual clock sits mid-way between two checkpoints, strand in-flight
// transactions, Crash, Recover and an output check. tpcc and ycsb-b-zipf
// run steady state and check their outputs once, after the last batch.
// CheckInvariants closes the cell. The number of cycles is derived from
// --seconds, never from the host clock, so a seed and --seconds fix every
// simulated result.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.h"
#include "fault/diff_checker.h"
#include "fault/shadow_kv.h"
#include "obs/metrics.h"
#include "spans.h"
#include "testbed/testbed.h"
#include "timed_workload.h"
#include "workload/tpcc_workload.h"
#include "workload/ycsb_workload.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace face {
namespace perfbench {
namespace {

// --- workloads ---------------------------------------------------------------

enum class Kind { kTpcc, kYcsb, kCrash };

/// One named workload: what it loads, which cells it runs, and how much
/// work each cell does. --seconds scales the number of batches (and, on
/// crash-recovery, restarts); a batch is fixed, so a longer run repeats
/// the same protocol.
struct WorkloadSpec {
  const char* name;
  Kind kind;
  std::vector<CachePolicy> cells;
  /// Flash cache pages as a share of the golden image's pages.
  double flash_ratio;
  uint64_t warmup_txns;
  double cycles_per_second;   ///< cycles per cell per --seconds
  uint64_t txns_per_cycle;    ///< measured batch: one Run() call
  uint32_t stranded;          ///< in-flight transactions stranded per crash
  uint64_t records;           ///< KV rows (0 for TPC-C)
  uint32_t value_bytes;       ///< KV payload bytes (0 for TPC-C)
};

constexpr CachePolicy kAllPolicies[] = {
    CachePolicy::kNone, CachePolicy::kFace, CachePolicy::kFaceGR,
    CachePolicy::kFaceGSC, CachePolicy::kLc, CachePolicy::kTac,
    CachePolicy::kExadata};

const char* PolicyKey(CachePolicy p) {
  switch (p) {
    case CachePolicy::kNone: return "none";
    case CachePolicy::kFace: return "face";
    case CachePolicy::kFaceGR: return "face_gr";
    case CachePolicy::kFaceGSC: return "face_gsc";
    case CachePolicy::kLc: return "lc";
    case CachePolicy::kTac: return "tac";
    case CachePolicy::kExadata: return "exadata";
  }
  return "?";
}

/// The paper's checkpoint cadence, scaled as in bench_table6_recovery.
constexpr SimNanos kCheckpointInterval = 3 * kNanosPerSecond;
constexpr uint32_t kClients = 50;
/// Bound on the transactions run to bring the clock mid-interval.
constexpr uint64_t kMaxAlignTxns = 200000;
/// First alignment step of a cell that has not run yet, which has no
/// virtual time per transaction to size its steps from.
constexpr uint64_t kAlignProbeTxns = 16;
/// Golden images built per run; setup_s takes the median build, so one
/// slow build (other tenants of the machine) does not move it.
constexpr int kGoldenBuilds = 3;
/// --tiny keeps a cache at least this large: one metadata segment at the
/// testbed's floor of 1,024 entries (see TestbedOptions::seg_entries).
constexpr uint64_t kTinyMinFlashPages = 1024;

bool MakeSpec(const std::string& name, bool tiny, WorkloadSpec* out) {
  // --tiny (self-test scale) shrinks data, warmup and batches, not the
  // protocol.
  const uint64_t shrink = tiny ? 20 : 1;
  if (name == "tpcc") {
    *out = {"tpcc", Kind::kTpcc, {CachePolicy::kFaceGSC, CachePolicy::kLc},
            0.10, 3000 / shrink, 2.0, 1250 / shrink, 0, 0, 0};
  } else if (name == "ycsb-b-zipf") {
    *out = {"ycsb-b-zipf", Kind::kYcsb,
            std::vector<CachePolicy>(std::begin(kAllPolicies),
                                     std::end(kAllPolicies)),
            0.10, 20000 / shrink, 1.5, 25000 / shrink, 0,
            200000u / (tiny ? 10u : 1u), 400};
  } else if (name == "crash-recovery") {
    // Flash holds the whole database, including the rows the run's inserts
    // add (about half the initial population at --seconds 20).
    *out = {"crash-recovery", Kind::kCrash,
            {CachePolicy::kFaceGSC, CachePolicy::kNone, CachePolicy::kLc},
            2.0, 5000 / shrink, 3.0, 1000 / shrink, 4,
            40000u / (tiny ? 10u : 1u), 400};
  } else {
    return false;
  }
  return true;
}

// --- obs counters read around each measured batch ----------------------------

/// The obs values the per-layer metrics need that RunResult does not carry.
struct ObsSnap {
  double txn_updates = 0, txn_aborted = 0, wal_append_bytes = 0,
         wal_forces = 0, wal_force_pages = 0, ckpt_sync_pages = 0,
         meta_seg_flushes = 0;

  static ObsSnap Take() {
    static obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
    static obs::Counter* updates = reg.GetCounter("txn.updates");
    static obs::Counter* aborted = reg.GetCounter("txn.aborted");
    static obs::Counter* append = reg.GetCounter("wal.append_bytes");
    static obs::Counter* forces = reg.GetCounter("wal.forces");
    static obs::Hist* force_pages = reg.GetHistogram("wal.force_pages");
    static obs::Hist* ckpt_sync = reg.GetHistogram("buffer.ckpt_sync_pages");
    static obs::Counter* segs = reg.GetCounter("core.face.meta_seg_flushes");
    ObsSnap s;
    s.txn_updates = static_cast<double>(updates->value);
    s.txn_aborted = static_cast<double>(aborted->value);
    s.wal_append_bytes = static_cast<double>(append->value);
    s.wal_forces = static_cast<double>(forces->value);
    s.wal_force_pages = static_cast<double>(force_pages->sum());
    s.ckpt_sync_pages = static_cast<double>(ckpt_sync->sum());
    s.meta_seg_flushes = static_cast<double>(segs->value);
    return s;
  }
  void AddDelta(const ObsSnap& after, const ObsSnap& before) {
    txn_updates += after.txn_updates - before.txn_updates;
    txn_aborted += after.txn_aborted - before.txn_aborted;
    wal_append_bytes += after.wal_append_bytes - before.wal_append_bytes;
    wal_forces += after.wal_forces - before.wal_forces;
    wal_force_pages += after.wal_force_pages - before.wal_force_pages;
    ckpt_sync_pages += after.ckpt_sync_pages - before.ckpt_sync_pages;
    meta_seg_flushes += after.meta_seg_flushes - before.meta_seg_flushes;
  }
  std::string ToJsonBody() const {
    char buf[512];
    snprintf(buf, sizeof(buf),
             "\"txn.updates\":%.0f,\"txn.aborted\":%.0f,"
             "\"wal.append_bytes\":%.0f,\"wal.forces\":%.0f,"
             "\"wal.force_pages\":%.0f,\"buffer.ckpt_sync_pages\":%.0f,"
             "\"core.face.meta_seg_flushes\":%.0f",
             txn_updates, txn_aborted, wal_append_bytes, wal_forces,
             wal_force_pages, ckpt_sync_pages, meta_seg_flushes);
    return buf;
  }
};

// --- per-cell accumulation --------------------------------------------------

void AddDevice(DeviceStats* acc, const DeviceStats& d) {
  acc->read_reqs += d.read_reqs;
  acc->write_reqs += d.write_reqs;
  acc->seq_read_reqs += d.seq_read_reqs;
  acc->seq_write_reqs += d.seq_write_reqs;
  acc->pages_read += d.pages_read;
  acc->pages_written += d.pages_written;
  acc->busy_ns += d.busy_ns;
  acc->retries += d.retries;
  acc->backoff_ns += d.backoff_ns;
}

/// `acc += after - before`, field by field.
void AddCacheDelta(CacheStats* acc, const CacheStats& after,
                   const CacheStats& before) {
#define FACEBENCH_DELTA(f) acc->f += after.f - before.f
  FACEBENCH_DELTA(lookups);
  FACEBENCH_DELTA(hits);
  FACEBENCH_DELTA(dirty_evictions);
  FACEBENCH_DELTA(disk_writes);
  FACEBENCH_DELTA(disk_reads);
  FACEBENCH_DELTA(flash_writes);
  FACEBENCH_DELTA(flash_reads);
  FACEBENCH_DELTA(enqueues);
  FACEBENCH_DELTA(invalidations);
  FACEBENCH_DELTA(second_chances);
  FACEBENCH_DELTA(pulled_from_dram);
  FACEBENCH_DELTA(meta_flash_writes);
  FACEBENCH_DELTA(delta_records);
  FACEBENCH_DELTA(delta_record_bytes);
  FACEBENCH_DELTA(delta_block_writes);
  FACEBENCH_DELTA(delta_consolidations);
#undef FACEBENCH_DELTA
}

void AddPool(BufferPool::Stats* acc, const BufferPool::Stats& d) {
  acc->fetches += d.fetches;
  acc->hits += d.hits;
  acc->misses += d.misses;
  acc->disk_fetches += d.disk_fetches;
  acc->flash_fetches += d.flash_fetches;
  acc->evictions += d.evictions;
  acc->dirty_evictions += d.dirty_evictions;
  acc->new_pages += d.new_pages;
  acc->pulls += d.pulls;
}

struct CellStats {
  CachePolicy policy = CachePolicy::kNone;
  bool ran = false;
  uint32_t db_stations = 1;
  // Every Run() call of the cell.
  uint64_t txns = 0, primary = 0, checkpoints = 0;
  uint64_t rows_read = 0, rows_written = 0;
  SimNanos duration = 0;
  double run_host_s = 0;
  DeviceStats db, flash, log;
  BufferPool::Stats pool;
  CacheStats cache;
  ObsSnap obs;
  // Restarts and checks.
  std::vector<RestartReport> restarts;
  std::vector<double> restart_host_ms;
  fault::DiffReport diff;
  double check_s = 0;
};

/// Mean over the cell's restarts of one simulated duration (0 without any).
/// A mean, not a median: of the two it varies less from seed to seed for
/// the 30-60 restarts a cell runs, and the phase means add up to the
/// total.
double MeanRestartSeconds(const CellStats* c,
                          SimNanos RestartReport::*field) {
  if (c == nullptr || c->restarts.empty()) return 0;
  double sum = 0;
  for (const RestartReport& r : c->restarts) sum += ToSeconds(r.*field);
  return sum / static_cast<double>(c->restarts.size());
}

// --- statistics -------------------------------------------------------------

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/// Nearest-rank percentile, `p` in [0, 100].
template <typename T>
double Percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
  rank = std::min(std::max<size_t>(rank, 1), v.size());
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return static_cast<double>(v[rank - 1]);
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// --- the harness ------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string trace_out;
  bool tiny = false;
  bool corrupt_shadow = false;
};

class Harness {
 public:
  Harness(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec), rec_(!args.trace_out.empty()) {}

  /// Build the golden images and run every cell.
  void RunAll();
  /// Print the header, the tables and the final JSON line.
  void Report(double wall_s);
  bool correct() const { return failed_ == 0; }

 private:
  std::shared_ptr<const workload::WorkloadFactory> MakeFactory();
  void RunCell(CachePolicy policy, CellStats* cell);
  /// One Run() of `txns`, added to the cell's results and its checkpoints
  /// to `*checkpoints` when given. False on failure.
  bool Batch(Testbed* tb, uint64_t txns, CellStats* cell,
             uint64_t* checkpoints = nullptr);
  /// Run to the kill point (measured), strand transactions, Crash, Recover
  /// and check the outputs. False if the cell cannot go on.
  bool Restart(Testbed* tb, CellStats* cell);
  /// Count `n` attempts (transactions, a restart or an output check) and
  /// Check their outcome.
  bool Attempt(const Status& s, const std::string& what, uint64_t n = 1);
  /// A non-OK status is a failure of an attempt already counted. Returns
  /// s.ok().
  bool Check(const Status& s, const std::string& what);
  /// The workload's output check: after every restart on crash-recovery,
  /// after the last batch elsewhere.
  Status OutputCheck(Testbed* tb, CellStats* cell);
  std::vector<Metric> EndToEnd(double wall_s) const;
  std::vector<Metric> PerLayer(double wall_s) const;
  /// The workload's parameters, as the body of a JSON object.
  std::string HeaderJson() const;
  const CellStats* Cell(CachePolicy p) const;
  uint32_t Cycles() const;
  /// sim_txns_per_host_s: measured transactions over the host seconds of
  /// the measured Run() calls, summed over cells.
  double TxnsPerHostSecond() const;
  uint64_t FlashPages(CachePolicy p) const;

  const Args args_;
  const WorkloadSpec spec_;
  SpanRecorder rec_;
  std::shared_ptr<fault::ShadowState> shadow_;
  std::unique_ptr<GoldenImage> golden_;
  std::vector<double> golden_build_s_;
  std::vector<CellStats> cells_;
  double start_s_ = 0, warmup_s_ = 0;
  uint64_t attempted_ = 0, failed_ = 0;
  std::vector<std::string> failures_;
  bool corrupted_ = false;
  uint64_t rows_off_heap_chain_ = 0;  ///< worst seen; see RowsOffHeapChain
};

std::shared_ptr<const workload::WorkloadFactory> Harness::MakeFactory() {
  std::shared_ptr<const workload::WorkloadFactory> inner;
  switch (spec_.kind) {
    case Kind::kTpcc:
      inner = std::make_shared<workload::TpccFactory>(1);
      break;
    case Kind::kYcsb: {
      workload::YcsbOptions o = workload::YcsbOptions::B();
      o.records = spec_.records;
      o.value_bytes = spec_.value_bytes;
      inner = std::make_shared<workload::YcsbFactory>(o);
      break;
    }
    case Kind::kCrash: {
      fault::ShadowKvOptions o;
      o.records = spec_.records;
      o.value_bytes = spec_.value_bytes;
      shadow_ = std::make_shared<fault::ShadowState>();
      shadow_->Reset(o.records, o.value_bytes);
      inner = std::make_shared<fault::ShadowKvFactory>(o, shadow_);
      break;
    }
  }
  return std::make_shared<TimedFactory>(inner, &rec_);
}

bool Harness::Attempt(const Status& s, const std::string& what, uint64_t n) {
  attempted_ += n;
  return Check(s, what);
}

bool Harness::Check(const Status& s, const std::string& what) {
  if (s.ok()) return true;
  ++failed_;
  if (failures_.size() < 8) failures_.push_back(what + ": " + s.ToString());
  return false;
}

uint32_t Harness::Cycles() const {
  return static_cast<uint32_t>(
      std::max(1.0, std::round(args_.seconds * spec_.cycles_per_second)));
}

bool Harness::Batch(Testbed* tb, uint64_t txns, CellStats* cell,
                    uint64_t* checkpoints) {
  RunOptions run;
  run.txns = txns;
  run.checkpoint_interval = kCheckpointInterval;
  const CacheStats cache0 = tb->cache()->stats();
  const workload::WorkloadStats wl0 = tb->workload()->stats();
  const ObsSnap obs0 = ObsSnap::Take();

  rec_.set_sample_txn_latency(true);  // NextTxn in Run, not in Warmup
  SpanRecorder::Scope span(&rec_, "testbed", "Run");
  StatusOr<RunResult> r = tb->Run(run);
  const double host_s = span.End();
  rec_.set_sample_txn_latency(false);
  if (!Attempt(r.status(), "Run", txns)) return false;
  if (checkpoints != nullptr) *checkpoints += r->checkpoints;

  cell->run_host_s += host_s;
  cell->obs.AddDelta(ObsSnap::Take(), obs0);
  AddCacheDelta(&cell->cache, tb->cache()->stats(), cache0);
  const workload::WorkloadStats& wl = tb->workload()->stats();
  cell->rows_read += wl.rows_read - wl0.rows_read;
  cell->rows_written += wl.rows_written - wl0.rows_written;
  cell->txns += r->txns;
  cell->primary += r->primary_txns;
  cell->duration += r->duration;
  cell->checkpoints += r->checkpoints;
  AddDevice(&cell->db, r->db_stats);
  AddDevice(&cell->flash, r->flash_stats);
  AddDevice(&cell->log, r->log_stats);
  AddPool(&cell->pool, r->pool_stats);
  return true;
}

/// Device timing off for the duration of an output check, as the crash
/// storm does: the sweep's I/O is not part of any simulated result.
class UntimedDevices {
 public:
  explicit UntimedDevices(Testbed* tb) : tb_(tb) { Set(false); }
  ~UntimedDevices() { Set(true); }
  UntimedDevices(const UntimedDevices&) = delete;
  UntimedDevices& operator=(const UntimedDevices&) = delete;

 private:
  void Set(bool on) {
    tb_->db_dev()->set_timing_enabled(on);
    tb_->log_dev()->set_timing_enabled(on);
    if (tb_->flash_dev() != nullptr) tb_->flash_dev()->set_timing_enabled(on);
  }
  Testbed* tb_;
};

Status Harness::OutputCheck(Testbed* tb, CellStats* cell) {
  UntimedDevices untimed(tb);
  switch (spec_.kind) {
    case Kind::kTpcc: {
      SpanRecorder::Scope span(&rec_, "tpcc", "ConsistencyCheck");
      FACE_ASSIGN_OR_RETURN(uint64_t off_chain, RowsOffHeapChain(tb->db()));
      rows_off_heap_chain_ = std::max(rows_off_heap_chain_, off_chain);
      return CheckTpccConsistency(tb->db());
    }
    case Kind::kYcsb: {
      SpanRecorder::Scope span(&rec_, "workload", "RowCountCheck");
      return CheckKvRowCount(*tb->db(), spec_.records);
    }
    case Kind::kCrash: {
      if (args_.corrupt_shadow && !corrupted_) {
        // Self-test hook: a committed version the engine never wrote.
        shadow_->versions[0] += 1000000;
        corrupted_ = true;
      }
      SpanRecorder::Scope span(&rec_, "fault", "RunDifferentialCheck");
      StatusOr<fault::DiffReport> d =
          fault::RunDifferentialCheck(*tb->db(), shadow_.get(), tb->cache());
      cell->check_s += span.End();
      FACE_RETURN_IF_ERROR(d.status());
      cell->diff.Merge(*d);
      if (!d->ok()) return Status::Corruption(d->ToString());
      return Status::OK();
    }
  }
  return Status::OK();
}

bool Harness::Restart(Testbed* tb, CellStats* cell) {
  // Crash half an interval after the next checkpoint (bench_table6's kill
  // point), so every restart replays about the same history. Steps of 1/32
  // interval, from the cell's virtual time per transaction so far, keep
  // the kill point close to the middle.
  uint64_t step = kAlignProbeTxns;
  uint64_t ckpts = 0;
  for (uint64_t extra = 0; extra < kMaxAlignTxns; extra += step) {
    if (ckpts > 0 && tb->sched()->now() >=
                         tb->last_checkpoint_time() + kCheckpointInterval / 2) {
      break;
    }
    if (cell->txns > 0) {
      const double txn_ns = static_cast<double>(cell->duration) /
                            static_cast<double>(cell->txns);
      step = std::max<uint64_t>(
          1, static_cast<uint64_t>(static_cast<double>(kCheckpointInterval) /
                                   32 / std::max(txn_ns, 1.0)));
    }
    if (!Batch(tb, step, cell, &ckpts)) return false;
  }

  {
    SpanRecorder::Scope span(&rec_, "testbed", "InjectInflightTransactions");
    if (!Attempt(tb->InjectInflightTransactions(spec_.stranded), "Inject",
                 spec_.stranded)) {
      return false;
    }
  }
  // One restart attempt: Crash + Recover.
  ++attempted_;
  double restart_s = 0;
  {
    SpanRecorder::Scope span(&rec_, "testbed", "Crash");
    const Status s = tb->Crash();
    restart_s += span.End();
    if (!Check(s, "Crash")) return false;
  }
  {
    SpanRecorder::Scope span(&rec_, "recovery", "Recover");
    StatusOr<RestartReport> report = tb->Recover();
    restart_s += span.End();
    if (!Check(report.status(), "Recover")) return false;
    cell->restarts.push_back(*report);
    cell->restart_host_ms.push_back(restart_s * 1e3);
  }
  Attempt(OutputCheck(tb, cell),
          std::string("output check (") + PolicyKey(cell->policy) +
              ", restart " + std::to_string(cell->restarts.size()) + ")");
  return true;
}

uint64_t Harness::FlashPages(CachePolicy p) const {
  if (p == CachePolicy::kNone) return 0;
  const uint64_t pages = std::max<uint64_t>(
      64, static_cast<uint64_t>(static_cast<double>(golden_->db_pages()) *
                                spec_.flash_ratio));
  return args_.tiny ? std::max(pages, kTinyMinFlashPages) : pages;
}

void Harness::RunCell(CachePolicy policy, CellStats* cell) {
  cell->policy = policy;
  cell->ran = true;
  const std::string cell_args =
      std::string("\"policy\":\"") + PolicyKey(policy) + "\"";
  SpanRecorder::Scope cell_span(&rec_, "bench", "cell", 0, cell_args);
  const ObsSnap cell_obs0 = ObsSnap::Take();
  if (shadow_ != nullptr) shadow_->Reset(spec_.records, spec_.value_bytes);

  TestbedOptions opts;
  opts.clients = kClients;
  opts.seed = args_.seed;
  opts.policy = policy;
  opts.flash_pages = FlashPages(policy);

  std::unique_ptr<Testbed> tb;
  {
    SpanRecorder::Scope span(&rec_, "testbed", "Start");
    tb = std::make_unique<Testbed>(opts, golden_.get());
    const Status s = tb->Start();
    start_s_ += span.End();
    if (!Attempt(s, "Start")) return;
  }
  cell->db_stations = opts.db_profile.stations;
  {
    SpanRecorder::Scope span(&rec_, "testbed", "Warmup");
    const Status s = tb->Warmup(spec_.warmup_txns);
    warmup_s_ += span.End();
    if (!Attempt(s, "Warmup", spec_.warmup_txns)) return;
  }

  // A cell measures whole cycles, so on crash-recovery its throughput
  // includes the checkpoints and each restart's cold start.
  for (uint32_t i = 0; i < Cycles(); ++i) {
    if (!Batch(tb.get(), spec_.txns_per_cycle, cell)) return;
    if (spec_.kind == Kind::kCrash && !Restart(tb.get(), cell)) return;
  }
  if (spec_.kind != Kind::kCrash) {
    Attempt(OutputCheck(tb.get(), cell),
            std::string("output check (") + PolicyKey(policy) + ")");
  }

  {
    SpanRecorder::Scope span(&rec_, "core", "CheckInvariants");
    Attempt(tb->cache()->CheckInvariants(),
            std::string("CheckInvariants (") + PolicyKey(policy) + ")");
  }
  if (rec_.traced()) {
    ObsSnap delta;
    delta.AddDelta(ObsSnap::Take(), cell_obs0);
    rec_.SetArgs(cell_span.handle(), cell_args + "," + delta.ToJsonBody());
  }
}

void Harness::RunAll() {
  if (rec_.traced()) obs::SetEnabled(true);
  std::shared_ptr<const workload::WorkloadFactory> factory = MakeFactory();
  for (int i = 0; i < kGoldenBuilds; ++i) {
    golden_.reset();  // one image alive at a time
    SpanRecorder::Scope span(&rec_, "testbed", "BuildFor");
    StatusOr<GoldenImage> g = GoldenImage::BuildFor(factory, args_.seed);
    golden_build_s_.push_back(span.End());
    if (!Attempt(g.status(), "GoldenImage::BuildFor")) return;
    golden_ = std::make_unique<GoldenImage>(std::move(*g));
  }
  cells_.resize(spec_.cells.size());
  for (size_t i = 0; i < spec_.cells.size(); ++i) {
    RunCell(spec_.cells[i], &cells_[i]);
  }
  golden_.reset();
}

const CellStats* Harness::Cell(CachePolicy p) const {
  for (const CellStats& c : cells_) {
    if (c.ran && c.policy == p) return &c;
  }
  return nullptr;
}

double Harness::TxnsPerHostSecond() const {
  double txns = 0, host_s = 0;
  for (const CellStats& c : cells_) {
    txns += static_cast<double>(c.txns);
    host_s += c.run_host_s;
  }
  return Ratio(txns, host_s);
}

std::vector<Metric> Harness::EndToEnd(double wall_s) const {
  std::vector<Metric> m;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  m.push_back({"wall_s", wall_s, "s"});
  m.push_back({"setup_s", Median(golden_build_s_) + start_s_ + warmup_s_, "s"});
  m.push_back({"sim_txns_per_host_s", TxnsPerHostSecond(), "1/s"});
  m.push_back({"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0,
               "MB"});
  auto tpmc = [](const CellStats* c) {
    return c ? Ratio(static_cast<double>(c->primary) * 60e9,
                     static_cast<double>(c->duration))
             : 0.0;
  };
  const CellStats* gsc = Cell(CachePolicy::kFaceGSC);
  m.push_back({"tpmc.face_gsc", tpmc(gsc), "txn/min"});
  m.push_back({"tpmc.lc", tpmc(Cell(CachePolicy::kLc)), "txn/min"});
  m.push_back({"hit_pct.face_gsc",
               gsc ? 100 * Ratio(static_cast<double>(gsc->cache.hits),
                                 static_cast<double>(gsc->cache.lookups))
                   : 0.0,
               "%"});
  m.push_back({"flash_write_kb_per_txn.face_gsc",
               gsc ? Ratio(static_cast<double>(gsc->flash.pages_written) *
                               (kPageSize / 1024.0),
                           static_cast<double>(gsc->txns))
                   : 0.0,
               "KB"});
  return m;
}

std::vector<Metric> Harness::PerLayer(double wall_s) const {
  std::vector<Metric> m;
  const CellStats empty;
  const CellStats* gsc_ptr = Cell(CachePolicy::kFaceGSC);
  const CellStats& g = gsc_ptr ? *gsc_ptr : empty;
  const double gtxns = static_cast<double>(g.txns);
  auto per_txn = [gtxns](double v) { return Ratio(v, gtxns); };
  auto d = [](uint64_t v) { return static_cast<double>(v); };

  uint64_t txns = 0, rows_read = 0, rows_written = 0;
  double check_s = 0;
  fault::DiffReport diff;
  std::vector<double> restart_ms;
  for (const CellStats& c : cells_) {
    txns += c.txns;
    rows_read += c.rows_read;
    rows_written += c.rows_written;
    check_s += c.check_s;
    diff.Merge(c.diff);
    restart_ms.insert(restart_ms.end(), c.restart_host_ms.begin(),
                      c.restart_host_ms.end());
  }
  const double all_txns = d(txns);

  // workload
  const SpanRecorder::Totals load = rec_.TotalsOf("workload", "Load");
  m.push_back({"workload.load_s",
               Ratio(static_cast<double>(load.total_ns) * 1e-9, d(load.count)),
               "s"});
  const std::vector<uint32_t>& lat = rec_.txn_latency_ns();
  m.push_back({"workload.txn_host_us.p50", Percentile(lat, 50) / 1e3, "us"});
  m.push_back({"workload.txn_host_us.p99", Percentile(lat, 99) / 1e3, "us"});
  m.push_back({"workload.rows_read_per_txn", Ratio(d(rows_read), all_txns),
               "rows"});
  m.push_back({"workload.rows_written_per_txn",
               Ratio(d(rows_written), all_txns), "rows"});

  // testbed
  const SpanRecorder::Totals build = rec_.TotalsOf("testbed", "BuildFor");
  m.push_back({"testbed.golden_build_s",
               Ratio(static_cast<double>(build.self_ns) * 1e-9, d(build.count)),
               "s"});
  m.push_back({"testbed.clone_s", start_s_, "s"});
  m.push_back({"testbed.warmup_s", warmup_s_, "s"});
  const SpanRecorder::Totals run = rec_.TotalsOf("testbed", "Run");
  m.push_back({"testbed.run_self_s", static_cast<double>(run.self_ns) * 1e-9,
               "s"});
  for (CachePolicy p : kAllPolicies) {
    const CellStats* c = Cell(p);
    m.push_back({std::string("testbed.run_s.") + PolicyKey(p),
                 c ? c->run_host_s : 0.0, "s"});
  }
  m.push_back({"bench.unattributed_s",
               wall_s - static_cast<double>(rec_.top_level_ns()) * 1e-9, "s"});
  m.push_back({"bench.traced_txns_per_host_s", TxnsPerHostSecond(), "1/s"});

  // txn (FaCE+GSC cell)
  m.push_back({"txn.updates_per_txn", per_txn(g.obs.txn_updates), "count"});
  m.push_back({"txn.aborted", g.obs.txn_aborted, "count"});

  // buffer
  m.push_back({"buffer.hit_pct",
               100 * Ratio(d(g.pool.hits), d(g.pool.fetches)), "%"});
  m.push_back({"buffer.misses_per_txn", per_txn(d(g.pool.misses)), "count"});
  m.push_back({"buffer.dirty_evictions_per_txn",
               per_txn(d(g.pool.dirty_evictions)), "count"});
  m.push_back({"buffer.flash_fetch_pct",
               100 * Ratio(d(g.pool.flash_fetches), d(g.pool.misses)), "%"});
  m.push_back({"buffer.ckpt_sync_pages", g.obs.ckpt_sync_pages, "pages"});

  // core (FaCE+GSC cell)
  m.push_back({"core.admissions_per_txn", per_txn(d(g.cache.enqueues)),
               "count"});
  m.push_back({"core.invalidations_per_txn", per_txn(d(g.cache.invalidations)),
               "count"});
  m.push_back({"core.second_chances_per_txn",
               per_txn(d(g.cache.second_chances)), "count"});
  m.push_back({"core.meta_seg_flushes", g.obs.meta_seg_flushes, "count"});
  m.push_back({"core.delta_records_per_txn", per_txn(d(g.cache.delta_records)),
               "count"});
  m.push_back({"core.delta_vs_full_ratio",
               Ratio(d(g.cache.delta_records), d(g.cache.flash_writes)),
               "ratio"});
  m.push_back({"core.delta_consolidations", d(g.cache.delta_consolidations),
               "count"});

  // sim (FaCE+GSC cell)
  const double dur = static_cast<double>(g.duration);
  m.push_back({"sim.db.read_pages_per_txn", per_txn(d(g.db.pages_read)),
               "pages"});
  m.push_back({"sim.db.write_pages_per_txn", per_txn(d(g.db.pages_written)),
               "pages"});
  m.push_back({"sim.db.utilization",
               Ratio(static_cast<double>(g.db.busy_ns), dur * g.db_stations),
               "ratio"});
  m.push_back({"sim.flash.read_pages_per_txn", per_txn(d(g.flash.pages_read)),
               "pages"});
  m.push_back({"sim.flash.write_pages_per_txn",
               per_txn(d(g.flash.pages_written)), "pages"});
  m.push_back({"sim.flash.seq_write_pct",
               100 * Ratio(d(g.flash.seq_write_reqs), d(g.flash.write_reqs)),
               "%"});
  m.push_back({"sim.flash.utilization",
               Ratio(static_cast<double>(g.flash.busy_ns), dur), "ratio"});
  m.push_back({"sim.log.write_reqs_per_txn", per_txn(d(g.log.write_reqs)),
               "count"});
  m.push_back({"sim.flash.retries", d(g.flash.retries), "count"});

  // wal (FaCE+GSC cell)
  m.push_back({"wal.append_bytes_per_txn", per_txn(g.obs.wal_append_bytes),
               "B"});
  m.push_back({"wal.forces_per_txn", per_txn(g.obs.wal_forces), "count"});
  m.push_back({"wal.force_pages_per_force",
               Ratio(g.obs.wal_force_pages, g.obs.wal_forces), "pages"});

  // recovery (crash-recovery only): host time over every restart, phases
  // over FaCE+GSC's
  m.push_back({"recovery.restart_host_ms.p50", Median(restart_ms), "ms"});
  m.push_back({"recovery.restart_host_ms.p90", Percentile(restart_ms, 90),
               "ms"});
  m.push_back({"recovery.restart_sim_s.face_gsc",
               MeanRestartSeconds(gsc_ptr, &RestartReport::total_ns), "s"});
  m.push_back({"recovery.restart_sim_s.none",
               MeanRestartSeconds(Cell(CachePolicy::kNone),
                                  &RestartReport::total_ns),
               "s"});
  auto phase = [&g](SimNanos RestartReport::*field) {
    return MeanRestartSeconds(&g, field);
  };
  m.push_back({"recovery.meta_restore_s",
               phase(&RestartReport::meta_restore_ns), "s"});
  m.push_back({"recovery.analysis_s", phase(&RestartReport::analysis_ns), "s"});
  m.push_back({"recovery.redo_s", phase(&RestartReport::redo_ns), "s"});
  m.push_back({"recovery.undo_s", phase(&RestartReport::undo_ns), "s"});
  m.push_back({"recovery.checkpoint_s", phase(&RestartReport::checkpoint_ns),
               "s"});
  uint64_t redo = 0, applied = 0, fetched = 0, from_flash = 0;
  for (const RestartReport& r : g.restarts) {
    redo += r.redo_records;
    applied += r.redo_applied;
    fetched += r.pages_fetched;
    from_flash += r.pages_from_flash;
  }
  m.push_back({"recovery.redo_applied_pct", 100 * Ratio(d(applied), d(redo)),
               "%"});
  m.push_back({"recovery.flash_fetch_pct",
               100 * Ratio(d(from_flash), d(fetched)), "%"});
  m.push_back({"recovery.checkpoints", d(g.checkpoints), "count"});

  // tpcc
  m.push_back({"tpcc.rows_off_heap_chain", d(rows_off_heap_chain_), "rows"});

  // fault
  m.push_back({"fault.check_s", check_s, "s"});
  m.push_back({"fault.rows_checked", d(diff.rows_checked), "rows"});
  m.push_back({"fault.divergences",
               d(diff.divergences + diff.invariant_violations), "count"});
  return m;
}

std::string Harness::HeaderJson() const {
  char buf[768];
  snprintf(buf, sizeof(buf),
           "\"workload\":\"%s\",\"seed\":%" PRIu64
           ",\"seconds\":%g,\"tiny\":%s,\"build_type\":\"%s\","
           "\"nproc\":%u,\"clients\":%u,\"checkpoint_interval_s\":%g,"
           "\"flash_ratio\":%g,\"warmup_txns\":%" PRIu64
           ",\"cycles_per_cell\":%u,\"txns_per_cycle\":%" PRIu64
           ",\"stranded\":%u,\"records\":%" PRIu64
           ",\"value_bytes\":%u",
           spec_.name, args_.seed, args_.seconds, args_.tiny ? "true" : "false",
           PERFBENCH_BUILD_TYPE, std::thread::hardware_concurrency(),
           kClients, ToSeconds(kCheckpointInterval), spec_.flash_ratio,
           spec_.warmup_txns, Cycles(),
           spec_.txns_per_cycle,
           spec_.stranded, spec_.records, spec_.value_bytes);
  return buf;
}

void PrintMetricsTable(const char* title, const std::vector<Metric>& ms) {
  printf("\n%s\n", title);
  for (const Metric& m : ms) {
    printf("  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void Harness::Report(double wall_s) {
  const bool traced = rec_.traced();
  // Reproducibility header.
  printf("# perfbench %s seed=%" PRIu64 " seconds=%g%s\n", spec_.name,
         args_.seed, args_.seconds, args_.tiny ? " (tiny)" : "");
  printf("# params {%s}\n", HeaderJson().c_str());
  if (strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    printf("# WARNING: build type %s is not Release; host times are not "
           "comparable\n",
           PERFBENCH_BUILD_TYPE);
  }
  uint64_t restarts = 0;
  for (const CellStats& c : cells_) restarts += c.restarts.size();
  printf("# samples: recovery.restart_host_ms.* over %" PRIu64
         " restarts; setup_s golden-build median over %zu builds; "
         "workload.txn_host_us.* over %zu transactions%s\n",
         restarts, golden_build_s_.size(),
         rec_.txn_latency_ns().size(), traced ? "" : " (traced runs only)");

  printf("\n%-10s %10s %12s %10s %10s %12s %10s\n", "cell", "txns",
         "tpm(sim)", "hit%", "run_s", "restart_ms", "sim_rst_s");
  for (const CellStats& c : cells_) {
    if (!c.ran) continue;
    printf("%-10s %10" PRIu64 " %12.1f %10.2f %10.3f %12.2f %10.3f\n",
           PolicyKey(c.policy), c.txns,
           Ratio(static_cast<double>(c.primary) * 60e9,
                 static_cast<double>(c.duration)),
           100 * Ratio(static_cast<double>(c.cache.hits),
                       static_cast<double>(c.cache.lookups)),
           c.run_host_s, Median(c.restart_host_ms),
           MeanRestartSeconds(&c, &RestartReport::total_ns));
  }

  const std::vector<Metric> e2e = EndToEnd(wall_s);
  const double failed_pct =
      100 *
      Ratio(static_cast<double>(failed_), static_cast<double>(attempted_));
  PrintMetricsTable("end-to-end:", e2e);
  printf("  %-36s %16.6g %s\n", "failed_pct", failed_pct, "%");
  std::vector<Metric> layers;
  if (traced) {
    layers = PerLayer(wall_s);
    PrintMetricsTable("per-layer:", layers);
    printf("\nself time by layer (s, share of wall_s):\n");
    for (const auto& [layer, ns] : rec_.SelfNsByLayer()) {
      const double s = static_cast<double>(ns) * 1e-9;
      printf("  %-12s %10.4f %6.1f%%\n", layer.c_str(), s,
             100 * Ratio(s, wall_s));
    }
    const double unattributed =
        wall_s - static_cast<double>(rec_.top_level_ns()) * 1e-9;
    printf("  %-12s %10.4f %6.1f%%\n", "unattributed", unattributed,
           100 * Ratio(unattributed, wall_s));
    printf("\nself time by span (count, total s, self s, self share of "
           "wall_s):\n");
    for (const SpanRecorder::Site& site : rec_.sites()) {
      const double self_s = static_cast<double>(site.totals.self_ns) * 1e-9;
      printf("  %-36s %9" PRIu64 " %10.4f %10.4f %6.1f%%\n",
             (std::string(site.layer) + "/" + site.name).c_str(),
             site.totals.count,
             static_cast<double>(site.totals.total_ns) * 1e-9, self_s,
             100 * Ratio(self_s, wall_s));
    }
    std::string meta = HeaderJson();
    char extra[256];
    snprintf(extra, sizeof(extra),
             ",\"wall_s\":%.6f,\"kept_spans\":%" PRIu64
             ",\"dropped_txn_spans\":%" PRIu64,
             wall_s, rec_.kept_spans(), rec_.dropped_spans());
    meta += extra;
    if (!rec_.WriteChromeTrace(args_.trace_out, meta)) {
      Attempt(Status::IOError("cannot write " + args_.trace_out), "trace");
    } else {
      printf("# trace: %s (%" PRIu64 " spans kept, %" PRIu64
             " per-transaction spans not kept)\n",
             args_.trace_out.c_str(), rec_.kept_spans(), rec_.dropped_spans());
    }
  }
  if (rows_off_heap_chain_ > 0) {
    printf("# known defect: %" PRIu64 " committed TPC-C rows are reachable "
           "only through their index, not by a heap scan (see README.md)\n",
           rows_off_heap_chain_);
  }
  for (const std::string& f : failures_) printf("FAILED: %s\n", f.c_str());

  const std::vector<Metric>& out = traced ? layers : e2e;
  printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
         ", \"metrics\": {",
         failed_ == 0 ? "true" : "false", attempted_, failed_);
  for (size_t i = 0; i < out.size(); ++i) {
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
           out[i].name.c_str(), out[i].value, out[i].unit.c_str());
  }
  printf("}}\n");
  fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (arg == "--workload") {
      if (!value(&a->workload)) return false;
    } else if (arg == "--seed") {
      if (!value(&v)) return false;
      a->seed = strtoull(v.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      if (!value(&v)) return false;
      a->seconds = atof(v.c_str());
      if (!(a->seconds > 0)) return false;
    } else if (arg == "--trace-out") {
      if (!value(&a->trace_out)) return false;
    } else if (arg == "--tiny") {
      a->tiny = true;
    } else if (arg == "--corrupt-shadow") {
      a->corrupt_shadow = true;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

}  // namespace
}  // namespace perfbench
}  // namespace face

int main(int argc, char** argv) {
  using namespace face::perfbench;
  const HostClock::time_point start = HostClock::now();
  Args args;
  WorkloadSpec spec;
  if (!ParseArgs(argc, argv, &args) ||
      !MakeSpec(args.workload, args.tiny, &spec)) {
    fprintf(stderr,
            "usage: facebench --workload tpcc|ycsb-b-zipf|crash-recovery "
            "--seed N --seconds S [--trace-out FILE] [--tiny] "
            "[--corrupt-shadow]\n");
    return 2;
  }
  Harness harness(args, spec);
  harness.RunAll();
  const double wall_s =
      std::chrono::duration<double>(HostClock::now() - start).count();
  harness.Report(wall_s);
  return harness.correct() ? 0 : 1;
}
