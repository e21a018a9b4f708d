// The differential recovery checker: after restart, compare the recovered
// engine state row-for-row against the shadow logical table (committed
// transactions only), resolve the one in-doubt operation the crash cut
// mid-flight, and audit the flash cache's recovered directory.
//
// A divergence is a row whose recovered bytes match no legal outcome, a
// missing or phantom key, or a flash-directory invariant violation ("no
// frame mapped twice, every mapped frame CRC-valid"). Divergences are
// *reported*, not returned as errors — the checker's job is to keep looking
// and hand the storm a complete account; only infrastructure failures (a
// dead device, a misused API) surface as non-OK status.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cache_ext.h"
#include "engine/database.h"
#include "fault/shadow_kv.h"

namespace face {
namespace fault {

/// Outcome of one differential check.
struct DiffReport {
  uint64_t rows_checked = 0;
  uint64_t divergences = 0;            ///< rows diverging from the shadow
  uint64_t invariant_violations = 0;   ///< cache-directory audit failures
  uint64_t frames_audited = 0;         ///< FaCE frames read back and verified
  /// First few divergences, human-readable (capped).
  std::vector<std::string> details;

  bool ok() const { return divergences == 0 && invariant_violations == 0; }
  /// Fold another check's counts into this one.
  void Merge(const DiffReport& other);
  std::string ToString() const;
};

/// Compare recovered state against `shadow` and audit `cache` (null skips
/// the cache audit). Resolves shadow->pending as a side effect: after the
/// call the shadow again describes exactly one legal state, so the workload
/// may resume. Callers typically disable device timing around the check so
/// the sweep's I/O is free.
StatusOr<DiffReport> RunDifferentialCheck(Database& db, ShadowState* shadow,
                                          CacheExtension* cache);

}  // namespace fault
}  // namespace face
