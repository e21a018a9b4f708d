// Host-time spans recorded by the benchmark around its calls into the
// program. Every span has a layer (Chrome-trace category), a name, start and
// end on the host's steady clock, the span that encloses it, and the id of
// the transaction it belongs to (0 outside transactions).
//
// Two modes:
//   - untraced (end-to-end run): only the coarse spans the end-to-end
//     metrics need are timed — a few hundred per run — and per-transaction
//     spans are not opened at all;
//   - traced: per-transaction spans are opened too, their durations are
//     kept as latency samples, and the spans are written at exit as a
//     Chrome trace-event file.
//
// Self time is accounted online for every span, kept or not: a span's self
// time is its duration minus the part of it covered by its child spans.
// Per-transaction spans are many (millions on a read-mostly workload), so
// only the first kKeptTxnSpansPerParent of each enclosing span, and at most
// kMaxKeptTxnSpans in all, are kept for the trace file; the rest still
// count toward self time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace face {
namespace perfbench {

using HostClock = std::chrono::steady_clock;

class SpanRecorder {
 public:
  /// Aggregate over every closed span of one (layer, name).
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  /// One (layer, name) pair and its totals.
  struct Site {
    const char* layer;
    const char* name;
    Totals totals;
  };

  explicit SpanRecorder(bool traced);
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool traced() const { return traced_; }
  /// A fresh per-transaction id (1, 2, ...) for a span's `txn`.
  uint64_t NextTxnId() { return ++last_txn_id_; }

  /// Open a span nested in the innermost open one. Returns its handle for
  /// Close(). `args` (JSON object body, may be empty) is written with the
  /// span in the trace file.
  int Open(const char* layer, const char* name, uint64_t txn = 0,
           std::string args = std::string());
  /// Close the innermost open span, which must be `handle`. Returns its
  /// duration in host nanoseconds.
  int64_t Close(int handle);
  /// Replace the args of an open span (e.g. counter deltas known at close).
  void SetArgs(int handle, std::string args);

  /// While true, closed "workload"/"NextTxn" spans keep their durations as
  /// latency samples (the harness sets it around measured Run calls).
  void set_sample_txn_latency(bool on) { sample_txn_latency_ = on; }
  const std::vector<uint32_t>& txn_latency_ns() const { return txn_ns_; }

  /// Totals of the spans named `layer`/`name` (zero if none closed).
  Totals TotalsOf(const char* layer, const char* name) const;
  /// Every (layer, name) seen, in first-opened order.
  const std::vector<Site>& sites() const { return sites_; }
  /// Sum of top-level span durations.
  int64_t top_level_ns() const { return top_level_ns_; }
  /// Self time summed per layer.
  std::map<std::string, int64_t> SelfNsByLayer() const;

  uint64_t kept_spans() const { return spans_.size(); }
  uint64_t dropped_spans() const { return dropped_; }

  /// Write the kept spans as Chrome trace-event JSON; `metadata` (a JSON
  /// object body) goes into a process-metadata event. Returns false on I/O
  /// failure.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& metadata) const;

  /// RAII span.
  class Scope {
   public:
    Scope(SpanRecorder* rec, const char* layer, const char* name,
          uint64_t txn = 0, std::string args = std::string())
        : rec_(rec), handle_(rec->Open(layer, name, txn, std::move(args))) {}
    ~Scope() {
      if (handle_ >= 0) rec_->Close(handle_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Close early; returns the duration in seconds.
    double End() {
      const int64_t ns = rec_->Close(handle_);
      handle_ = -1;
      return static_cast<double>(ns) * 1e-9;
    }
    int handle() const { return handle_; }

   private:
    SpanRecorder* rec_;
    int handle_;
  };

  static constexpr uint32_t kKeptTxnSpansPerParent = 32;
  static constexpr uint64_t kMaxKeptTxnSpans = 20000;

 private:
  struct Kept {
    const char* layer;
    const char* name;
    int32_t parent;  ///< index into spans_, -1 at top level
    uint64_t txn;
    int64_t start_ns, end_ns;
    std::string args;
  };
  struct OpenSpan {
    int site;  ///< index into sites_
    int64_t start_ns;
    int64_t child_ns = 0;
    int32_t kept = -1;       ///< index into spans_, -1 if not kept
    uint32_t kept_txns = 0;  ///< per-transaction children kept so far
    int handle = 0;
  };

  int64_t NowNs() const;
  int SiteOf(const char* layer, const char* name);

  const bool traced_;
  const HostClock::time_point epoch_;
  std::vector<OpenSpan> stack_;
  std::vector<Kept> spans_;
  std::vector<Site> sites_;
  std::vector<uint32_t> txn_ns_;
  bool sample_txn_latency_ = false;
  int64_t top_level_ns_ = 0;
  uint64_t dropped_ = 0;
  uint64_t kept_txns_ = 0;
  int next_handle_ = 0;
  uint64_t last_txn_id_ = 0;
};

}  // namespace perfbench
}  // namespace face
