#include "spans.h"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace face {
namespace perfbench {

SpanRecorder::SpanRecorder(bool traced)
    : traced_(traced), epoch_(HostClock::now()) {}

int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             HostClock::now() - epoch_)
      .count();
}

int SpanRecorder::SiteOf(const char* layer, const char* name) {
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (strcmp(sites_[i].layer, layer) == 0 &&
        strcmp(sites_[i].name, name) == 0) {
      return static_cast<int>(i);
    }
  }
  sites_.push_back(Site{layer, name, Totals{}});
  return static_cast<int>(sites_.size() - 1);
}

int SpanRecorder::Open(const char* layer, const char* name, uint64_t txn,
                       std::string args) {
  OpenSpan open;
  open.site = SiteOf(layer, name);
  open.handle = next_handle_++;
  if (traced_) {
    OpenSpan* parent = stack_.empty() ? nullptr : &stack_.back();
    const bool keep =
        txn == 0 || parent == nullptr ||
        (kept_txns_ < kMaxKeptTxnSpans &&
         parent->kept_txns++ < kKeptTxnSpansPerParent);
    if (keep) {
      if (txn != 0) ++kept_txns_;
      open.kept = static_cast<int32_t>(spans_.size());
      spans_.push_back(Kept{layer, name, parent ? parent->kept : -1, txn, 0,
                            0, std::move(args)});
    } else {
      ++dropped_;
    }
  }
  open.start_ns = NowNs();
  stack_.push_back(open);
  return open.handle;
}

int64_t SpanRecorder::Close(int handle) {
  const int64_t end = NowNs();
  if (stack_.empty() || stack_.back().handle != handle) {
    fprintf(stderr, "perfbench: span closed out of order\n");
    abort();
  }
  const OpenSpan open = stack_.back();
  stack_.pop_back();
  const int64_t dur = end - open.start_ns;
  Site& site = sites_[open.site];
  ++site.totals.count;
  site.totals.total_ns += dur;
  site.totals.self_ns += dur - open.child_ns;
  if (stack_.empty()) {
    top_level_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
  if (open.kept >= 0) {
    spans_[open.kept].start_ns = open.start_ns;
    spans_[open.kept].end_ns = end;
  }
  if (sample_txn_latency_ && strcmp(site.name, "NextTxn") == 0) {
    txn_ns_.push_back(dur > UINT32_MAX ? UINT32_MAX
                                       : static_cast<uint32_t>(dur));
  }
  return dur;
}

void SpanRecorder::SetArgs(int handle, std::string args) {
  for (OpenSpan& open : stack_) {
    if (open.handle == handle && open.kept >= 0) {
      spans_[open.kept].args = std::move(args);
    }
  }
}

SpanRecorder::Totals SpanRecorder::TotalsOf(const char* layer,
                                            const char* name) const {
  for (const Site& site : sites_) {
    if (strcmp(site.layer, layer) == 0 && strcmp(site.name, name) == 0) {
      return site.totals;
    }
  }
  return Totals{};
}

std::map<std::string, int64_t> SpanRecorder::SelfNsByLayer() const {
  std::map<std::string, int64_t> out;
  for (const Site& site : sites_) out[site.layer] += site.totals.self_ns;
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& metadata) const {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  fprintf(f, "{\"traceEvents\":[\n");
  fprintf(f,
          "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
          "\"args\":{\"name\":\"perfbench\",%s}}",
          metadata.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Kept& s = spans_[i];
    fprintf(f,
            ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
            "\"dur\":%.3f,\"pid\":1,\"tid\":1,\"args\":{\"id\":%zu,"
            "\"parent\":%d,\"txn\":%" PRIu64 "%s%s}}",
            s.name, s.layer, static_cast<double>(s.start_ns) / 1e3,
            static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
            s.txn, s.args.empty() ? "" : ",", s.args.c_str());
  }
  fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return fclose(f) == 0;
}

}  // namespace perfbench
}  // namespace face
