#include "obs/metrics.h"

#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <vector>

#include "sim/scheduler.h"

namespace face {
namespace obs {

namespace {

/// Per-thread clock binding: each shard worker stamps with its own
/// scheduler, the main thread with whatever Testbed it is driving.
thread_local const IoScheduler* t_clock = nullptr;

/// All thread registries ever created, in creation order (main thread
/// first in practice). Entries are never removed: a registry outlives its
/// thread so merged exports still see an exited worker's numbers. The
/// mutex guards only this list — never the metric values.
std::mutex& RegistryListMutex() {
  static std::mutex* m = new std::mutex();
  return *m;
}

std::vector<MetricsRegistry*>& RegistryList() {
  static std::vector<MetricsRegistry*>* list =
      new std::vector<MetricsRegistry*>();
  return *list;
}

void AppendJsonNumber(std::string* out, double v) {
  char buf[64];
  snprintf(buf, sizeof(buf), "%.10g", v);
  out->append(buf);
}

void AppendJsonNumber(std::string* out, uint64_t v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%" PRIu64, v);
  out->append(buf);
}

void AppendJsonNumber(std::string* out, int64_t v) {
  char buf[32];
  snprintf(buf, sizeof(buf), "%" PRId64, v);
  out->append(buf);
}

}  // namespace

MetricsRegistry& MetricsRegistry::Instance() {
  thread_local MetricsRegistry* registry = [] {
    auto* r = new MetricsRegistry();  // leaked: handles live forever
    std::lock_guard<std::mutex> lock(RegistryListMutex());
    RegistryList().push_back(r);
    return r;
  }();
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Hist* MetricsRegistry::GetHistogram(const std::string& name) {
  auto& slot = hists_[name];
  if (slot == nullptr) slot = std::make_unique<Hist>();
  return slot.get();
}

void MetricsRegistry::Clear() {
  for (auto& [name, c] : counters_) c->value = 0;
  for (auto& [name, g] : gauges_) g->value = 0;
  for (auto& [name, h] : hists_) h->Clear();
}

std::string MetricsRegistry::ToJson() const {
  std::string out = "{\"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (c->value == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": ";
    AppendJsonNumber(&out, c->value);
  }
  out += "}, \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (g->value == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": ";
    AppendJsonNumber(&out, g->value);
  }
  out += "}, \"histograms\": {";
  first = true;
  for (const auto& [name, h] : hists_) {
    if (h->count() == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"count\": ";
    AppendJsonNumber(&out, h->count());
    out += ", \"min\": ";
    AppendJsonNumber(&out, h->min());
    out += ", \"max\": ";
    AppendJsonNumber(&out, h->max());
    out += ", \"sum\": ";
    AppendJsonNumber(&out, h->sum());
    out += ", \"mean\": ";
    AppendJsonNumber(&out, h->mean());
    out += ", \"p50\": ";
    AppendJsonNumber(&out, h->Percentile(50));
    out += ", \"p95\": ";
    AppendJsonNumber(&out, h->Percentile(95));
    out += ", \"p99\": ";
    AppendJsonNumber(&out, h->Percentile(99));
    out += "}";
  }
  out += "}}";
  return out;
}

std::string MetricsRegistry::ToText() const {
  std::string out;
  char buf[64];
  for (const auto& [name, c] : counters_) {
    if (c->value == 0) continue;
    snprintf(buf, sizeof(buf), " = %" PRIu64 "\n", c->value);
    out += name + buf;
  }
  for (const auto& [name, g] : gauges_) {
    if (g->value == 0) continue;
    snprintf(buf, sizeof(buf), " = %" PRId64 "\n", g->value);
    out += name + buf;
  }
  for (const auto& [name, h] : hists_) {
    if (h->count() == 0) continue;
    out += name + ": " + h->ToString() + "\n";
  }
  return out;
}

void MetricsRegistry::MergeInto(MetricsRegistry* out) const {
  for (const auto& [name, c] : counters_) out->GetCounter(name)->Add(c->value);
  for (const auto& [name, g] : gauges_) out->GetGauge(name)->Add(g->value);
  for (const auto& [name, h] : hists_) out->GetHistogram(name)->Merge(*h);
}

std::string MetricsRegistry::MergedToJson() {
  MetricsRegistry merged;
  {
    std::lock_guard<std::mutex> lock(RegistryListMutex());
    for (const MetricsRegistry* r : RegistryList()) r->MergeInto(&merged);
  }
  return merged.ToJson();
}

std::string MetricsRegistry::MergedToText() {
  MetricsRegistry merged;
  {
    std::lock_guard<std::mutex> lock(RegistryListMutex());
    for (const MetricsRegistry* r : RegistryList()) r->MergeInto(&merged);
  }
  return merged.ToText();
}

void SetVirtualClock(const IoScheduler* sched) { t_clock = sched; }

const IoScheduler* virtual_clock() { return t_clock; }

uint64_t VirtualNow() {
  if (t_clock == nullptr) return 0;
  return t_clock->in_span() ? t_clock->span_time() : t_clock->now();
}

}  // namespace obs
}  // namespace face
