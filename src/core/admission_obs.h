// Observability handles shared by the on-entry cache policies (TAC,
// Exadata): "core.<policy>.*" admission and invalidation churn.
#pragma once

#include <string>

#include "obs/metrics.h"

namespace face {

/// Resolve once per thread, e.g. through a thread_local instance.
struct AdmissionObs {
  explicit AdmissionObs(const std::string& prefix) {
    auto& reg = obs::MetricsRegistry::Instance();
    admissions = reg.GetCounter(prefix + ".admissions");
    invalidations = reg.GetCounter(prefix + ".invalidations");
    dirty_evictions = reg.GetCounter(prefix + ".dirty_evictions");
  }
  obs::Counter* admissions;
  obs::Counter* invalidations;
  obs::Counter* dirty_evictions;
};

}  // namespace face
