#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <mutex>
#include <vector>

namespace face {
namespace obs {

namespace {

/// One on/off switch shared by every thread's tracer.
std::atomic<bool> g_trace_enabled{false};

/// All thread tracers ever created, creation order. Never removed: a
/// tracer outlives its thread so the merged export still sees an exited
/// worker's spans. The mutex guards only this list, never span storage.
std::mutex& TracerListMutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

std::vector<Tracer*>& TracerList() {
  static std::vector<Tracer*>* list = new std::vector<Tracer*>();
  return *list;
}

}  // namespace

uint64_t HostNowNs() {
  // The one sanctioned host clock: span *host* stamps (args.host_dur_us in
  // the Chrome trace). Virtual time is always stamped alongside and no
  // simulated state ever derives from this value.
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          // facelint: allow(no-wallclock-sim) host-side span stamps only
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer& Tracer::Instance() {
  thread_local Tracer* tracer = [] {
    auto* t = new Tracer();  // leaked: interned names live forever
    std::lock_guard<std::mutex> lock(TracerListMutex());
    TracerList().push_back(t);
    return t;
  }();
  return *tracer;
}

void Tracer::SetEnabled(bool on) {
  g_trace_enabled.store(on, std::memory_order_relaxed);
}

bool Tracer::enabled() const {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void Tracer::AddSpan(const Span& span) {
  if (spans_.size() >= kMaxSpans) {
    ++dropped_;
    return;
  }
  spans_.push_back(span);
}

const char* Tracer::Intern(const std::string& name) {
  return interned_.insert(name).first->c_str();
}

void Tracer::Clear() {
  spans_.clear();
  dropped_ = 0;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IOError("cannot open trace file " + path);
  }

  // Merge every thread's tracer: one pseudo-process per recording thread
  // (named by its label, pids in tracer-creation order so the output is
  // deterministic), one pseudo-thread per component within it, so Perfetto
  // shows each (shard, subsystem) as its own track.
  std::vector<const Tracer*> tracers;
  {
    std::lock_guard<std::mutex> lock(TracerListMutex());
    tracers = std::vector<const Tracer*>(TracerList().begin(),
                                         TracerList().end());
  }

  fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  size_t total_dropped = 0;
  int pid = 0;
  for (const Tracer* t : tracers) {
    ++pid;
    total_dropped += t->dropped_;
    if (t->spans_.empty()) continue;

    std::map<std::string, int> tids;
    for (const Span& s : t->spans_) tids.emplace(s.component, 0);
    int next_tid = 1;
    for (auto& [component, tid] : tids) tid = next_tid++;

    if (!first) fputs(",\n", f);
    first = false;
    fprintf(f,
            "  {\"ph\": \"M\", \"pid\": %d, \"tid\": 0, "
            "\"name\": \"process_name\", \"args\": {\"name\": \"%s\"}}",
            pid, t->label_.c_str());
    for (const auto& [component, tid] : tids) {
      fprintf(f,
              ",\n  {\"ph\": \"M\", \"pid\": %d, \"tid\": %d, "
              "\"name\": \"thread_name\", \"args\": {\"name\": \"%s\"}}",
              pid, tid, component.c_str());
    }
    for (const Span& s : t->spans_) {
      // Virtual nanoseconds -> trace microseconds; three decimals keep the
      // full nanosecond resolution.
      const double ts = static_cast<double>(s.v_start_ns) / 1000.0;
      const double dur =
          static_cast<double>(s.v_end_ns - s.v_start_ns) / 1000.0;
      const double host_dur =
          static_cast<double>(s.host_end_ns - s.host_start_ns) / 1000.0;
      fprintf(f,
              ",\n  {\"ph\": \"X\", \"pid\": %d, \"tid\": %d, "
              "\"name\": \"%s\", \"cat\": \"%s\", \"ts\": %.3f, "
              "\"dur\": %.3f, \"args\": {\"host_dur_us\": %.3f}}",
              pid, tids[s.component], s.name, s.component, ts, dur, host_dur);
    }
  }
  if (total_dropped > 0) {
    if (!first) fputs(",\n", f);
    first = false;
    fprintf(f,
            "  {\"ph\": \"i\", \"pid\": 1, \"tid\": 0, "
            "\"name\": \"spans_dropped:%zu\", \"cat\": \"obs\", "
            "\"ts\": 0, \"s\": \"g\"}",
            total_dropped);
  }
  fputs("\n]}\n", f);
  if (fclose(f) != 0) {
    return Status::IOError("cannot write trace file " + path);
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace face
