// Unified metrics registry: named counters, gauges, and Histogram-backed
// latency/size distributions, shared by every layer of the stack
// (sim devices, buffer pool, cache policies, WAL, transactions, recovery).
//
// Design rules (see src/obs/README.md):
//   - Hierarchical names: "<component>.<metric>" ("buffer.misses",
//     "sim.flash.busy_ns", "recovery.redo_ns").
//   - Handle-based hot path: call GetCounter()/GetHistogram() once (cold)
//     and keep the pointer; handles stay valid for the process lifetime,
//     across Clear() included.
//   - Runtime-off by default: every instrumentation site is guarded by
//     obs::Enabled(), so unconfigured runs pay one predictable branch.
//   - Perturbation-free by construction: nothing in this subsystem touches
//     the IoScheduler, a device, or any simulated state. Instrumentation
//     reads virtual time; it never advances it.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/histogram.h"

namespace face {

class IoScheduler;

namespace obs {

/// Monotonic event counter. Hot-path Add is one guarded add.
struct Counter {
  uint64_t value = 0;
  void Add(uint64_t n) { value += n; }
  void Increment() { ++value; }
};

/// Point-in-time level (queue depths, resident pages, ...).
struct Gauge {
  int64_t value = 0;
  void Set(int64_t v) { value = v; }
  void Add(int64_t d) { value += d; }
};

/// Histograms are the shared power-of-two-bucket face::Histogram.
using Hist = ::face::Histogram;

/// Process-wide runtime switch. Default off: a run that never calls
/// SetEnabled(true) takes one predicted-false relaxed load per site.
/// Atomic so worker threads may consult it while the main thread owns it;
/// flip it before spawning shard workers, not while they run.
inline std::atomic<bool> g_enabled{false};
inline bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }
inline void SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

/// The registry. One instance per thread: Instance() returns the calling
/// thread's registry, so the hot path (handle deref + add) is exactly the
/// single-threaded code of old, with zero locks and zero sharing. Shard
/// workers each populate their own registry; exports that must see the
/// whole machine fold every thread's registry together with the static
/// Merged*() calls. Thread registries are never destroyed (handles stay
/// valid for the process lifetime, and a worker's numbers survive its
/// thread exiting).
///
/// Threading contract: Get*/Add/Clear touch only the calling thread's
/// registry. MergedToJson/MergedToText walk other threads' registries
/// WITHOUT per-value locks — call them only while the threads that write
/// those registries are quiescent (the sharded testbed's round barriers and
/// result merge guarantee this).
class MetricsRegistry {
 public:
  /// The calling thread's registry (created and registered on first use).
  static MetricsRegistry& Instance();

  /// Find-or-create by name. Returned pointers are stable for the process
  /// lifetime — register once, increment through the handle forever.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Hist* GetHistogram(const std::string& name);

  /// Zero every value. Handles stay valid (values reset, pointers do not).
  void Clear();

  /// Snapshot as one JSON object: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count,min,max,mean,sum,p50,p95,p99}}}.
  /// Zero-valued entries are omitted; key order is name-sorted (std::map),
  /// so identical runs serialize identically.
  std::string ToJson() const;

  /// Human-readable dump, one metric per line, name-sorted.
  std::string ToText() const;

  /// Cross-thread aggregation: every thread's registry folded into one
  /// name-merged snapshot (counters/gauges sum, histograms Merge). With a
  /// single thread this is byte-identical to the instance ToJson/ToText.
  static std::string MergedToJson();
  static std::string MergedToText();

 private:
  MetricsRegistry() = default;

  void MergeInto(MetricsRegistry* out) const;

  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Hist>> hists_;
};

/// Register the scheduler whose clock stamps metrics and trace spans
/// (Testbed::Start does this; null detaches). Reads only — the clock is
/// never advanced through this pointer. The binding is thread-local:
/// each shard worker stamps with its own scheduler's clock.
void SetVirtualClock(const IoScheduler* sched);
const IoScheduler* virtual_clock();

/// Current virtual time: the active span's clock while inside a
/// transaction/background span, the last completion time otherwise, and 0
/// when no clock is registered.
uint64_t VirtualNow();

}  // namespace obs
}  // namespace face
