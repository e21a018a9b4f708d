// Scoped-span tracer with dual clocks: every span records virtual
// (scheduler) time AND host wall time, and exports as Chrome trace-event
// JSON loadable in Perfetto / chrome://tracing. The virtual timestamps
// drive the timeline (they are the simulated truth: deterministic across
// machines); the host duration rides along in args for profiling the
// simulator itself.
//
// Like the metrics registry, the tracer only ever *reads* clocks — spans
// charge zero virtual time, so traced and untraced runs simulate
// identically.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace face {
namespace obs {

/// Host monotonic clock, nanoseconds (std::chrono::steady_clock).
uint64_t HostNowNs();

/// Append-only span store. One instance per thread (like MetricsRegistry):
/// Instance() returns the calling thread's tracer, so AddSpan never locks
/// or shares. The on/off switch is shared by every thread — enabling
/// tracing from the main thread turns shard workers' spans on too — and is
/// separate from metrics (tracing costs memory per event, metrics do not).
///
/// Threading contract: AddSpan/Intern/Clear/spans() touch only the calling
/// thread's store. WriteChromeTrace merges every thread's spans without
/// per-span locks — call it only while other recording threads are
/// quiescent (after the sharded testbed's workers have finished a round).
class Tracer {
 public:
  struct Span {
    const char* component;  ///< trace category ("wal", "recovery", ...)
    const char* name;       ///< event name ("force", "redo", ...)
    uint64_t v_start_ns;    ///< virtual time
    uint64_t v_end_ns;
    uint64_t host_start_ns;  ///< host time (steady clock)
    uint64_t host_end_ns;
  };

  /// The calling thread's tracer (created and registered on first use).
  static Tracer& Instance();

  /// Shared across threads (a relaxed atomic: flip it from the main thread
  /// before the workers start recording, not mid-round).
  void SetEnabled(bool on);
  bool enabled() const;

  /// Names this thread's track in the merged export ("shard-2"); the
  /// main thread defaults to "main".
  void SetThreadLabel(const std::string& label) { label_ = label; }

  /// Record one finished span. Beyond the per-thread cap the span is
  /// counted as dropped instead of stored (a runaway trace must not OOM).
  void AddSpan(const Span& span);

  /// Copy a runtime-built name ("io.flash") into storage that outlives the
  /// object that built it; the returned pointer stays valid until process
  /// exit. Span name/component fields must be literals or interned.
  const char* Intern(const std::string& name);

  /// Drop this thread's recorded spans (interned names are kept — handles
  /// survive).
  void Clear();

  /// This thread's spans only; the export below sees every thread's.
  size_t span_count() const { return spans_.size(); }
  size_t dropped() const { return dropped_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Write {"traceEvents": [...]} — "X" complete events on the virtual
  /// timeline (ts/dur in microseconds), merged across every thread's
  /// tracer: one pseudo-process per recording thread (named by its label),
  /// one pseudo-thread per component within it, via "M" metadata events;
  /// host-time duration rides in args.
  Status WriteChromeTrace(const std::string& path) const;

 private:
  Tracer() = default;

  static constexpr size_t kMaxSpans = 1u << 20;

  std::string label_ = "main";
  size_t dropped_ = 0;
  std::vector<Span> spans_;
  std::set<std::string> interned_;  // node-based: stable c_str() pointers
};

/// RAII span: captures both clocks at construction, records on destruction
/// (or an early End()). No-op unless the tracer is enabled at entry.
class ScopedSpan {
 public:
  ScopedSpan(const char* component, const char* name)
      : ScopedSpan(component, name, /*enabled=*/true) {}

  /// `enabled=false` makes this span unconditionally inert — for sites
  /// that only trace large batches (e.g. device requests >= 8 pages).
  ScopedSpan(const char* component, const char* name, bool enabled) {
    if (!enabled || !Tracer::Instance().enabled()) return;
    active_ = true;
    component_ = component;
    name_ = name;
    v_start_ = VirtualNow();
    host_start_ = HostNowNs();
  }

  ~ScopedSpan() { End(); }

  void End() {
    if (!active_) return;
    active_ = false;
    Tracer::Instance().AddSpan(
        {component_, name_, v_start_, VirtualNow(), host_start_, HostNowNs()});
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  const char* component_ = nullptr;
  const char* name_ = nullptr;
  uint64_t v_start_ = 0;
  uint64_t host_start_ = 0;
};

}  // namespace obs
}  // namespace face
