#include "fault/diff_checker.h"

#include <algorithm>
#include <sstream>
#include <string_view>

#include "core/face_cache.h"
#include "workload/kv_table.h"

namespace face {
namespace fault {

using workload::KvTable;

namespace {

constexpr size_t kMaxDetails = 12;

void AddDivergence(DiffReport* report, const std::string& what) {
  ++report->divergences;
  if (report->details.size() < kMaxDetails) report->details.push_back(what);
}

/// Resolve the in-doubt operation: read the key and decide which of its two
/// legal outcomes the recovered system chose. Anything else is a
/// divergence (resolved to the old state so later checks stay coherent).
void ResolvePending(const KvTable& table, ShadowState* shadow,
                    std::string* expected, DiffReport* report) {
  PendingOp p = shadow->pending;
  shadow->pending = PendingOp();
  if (p.kind == PendingOp::Kind::kNone) return;

  std::string row;
  const Status s = table.Read(p.key, &row);
  const uint32_t vb = shadow->value_bytes;
  if (p.kind == PendingOp::Kind::kUpdate) {
    if (s.ok() && KvTable::IsRow(row, p.key, vb, p.new_version, expected)) {
      if (p.commit_attempted) {
        shadow->versions[p.key] = p.new_version;  // commit made it down
      } else {
        // The crash hit before Commit was even invoked: nothing could have
        // forced the commit record, so the new version surviving recovery
        // means undo failed to roll the in-flight transaction back.
        AddDivergence(report,
                      "in-doubt update of key " + std::to_string(p.key) +
                          " survived recovery although its transaction never "
                          "reached commit");
      }
    } else if (s.ok() &&
               KvTable::IsRow(row, p.key, vb, p.old_version, expected)) {
      // rolled back (or never applied) — shadow already expects this
    } else {
      AddDivergence(report,
                    "in-doubt update of key " + std::to_string(p.key) +
                        " resolved to neither old nor new version (read: " +
                        s.ToString() + ")");
    }
    return;
  }
  // kInsert: the key either fully exists at the new version or not at all.
  if (s.ok() && KvTable::IsRow(row, p.key, vb, p.new_version, expected)) {
    if (p.commit_attempted) {
      shadow->versions.push_back(p.new_version);
    } else {
      AddDivergence(report,
                    "in-doubt insert of key " + std::to_string(p.key) +
                        " survived recovery although its transaction never "
                        "reached commit");
    }
  } else if (s.IsNotFound()) {
    // rolled back — key space unchanged
  } else {
    AddDivergence(report, "in-doubt insert of key " + std::to_string(p.key) +
                              " neither present nor absent (read: " +
                              s.ToString() + ")");
  }
}

}  // namespace

void DiffReport::Merge(const DiffReport& other) {
  rows_checked += other.rows_checked;
  divergences += other.divergences;
  invariant_violations += other.invariant_violations;
  frames_audited += other.frames_audited;
  for (const std::string& d : other.details) {
    if (details.size() >= kMaxDetails) break;
    details.push_back(d);
  }
}

std::string DiffReport::ToString() const {
  std::ostringstream os;
  os << "diff: rows=" << rows_checked << " divergences=" << divergences
     << " invariant_violations=" << invariant_violations
     << " frames_audited=" << frames_audited;
  for (const std::string& d : details) os << "\n  - " << d;
  return os.str();
}

StatusOr<DiffReport> RunDifferentialCheck(Database& db, ShadowState* shadow,
                                          CacheExtension* cache) {
  DiffReport report;
  FACE_ASSIGN_OR_RETURN(KvTable table, KvTable::Open(db));

  std::string expected;
  ResolvePending(table, shadow, &expected, &report);

  // Row-for-row: every committed key must read back at exactly its shadow
  // version. A NotFound or Corruption here is a divergence to record, not
  // an error to bail on; an IOError means the rig itself is broken. The
  // pool traffic shapes later simulated results: ReadPinned skips only
  // fetches that leave the LRU order as it is (README).
  {
    const uint32_t vb = shadow->value_bytes;
    const size_t row_bytes = 8 + size_t{vb};
    std::string images(8 * row_bytes, '\0');  // expected rows, 8 at a time
    uint64_t ids[8];
    KvTable::ReadPins pins;
    for (uint64_t key = 0; key < shadow->population(); ++key) {
      const uint64_t j = key % 8;
      if (j == 0) {
        const auto n = static_cast<uint32_t>(
            std::min<uint64_t>(8, shadow->population() - key));
        for (uint32_t k = 0; k < n; ++k) ids[k] = key + k;
        KvTable::RowsTo(images.data(), ids, &shadow->versions[key], n, vb);
      }
      ++report.rows_checked;
      std::string_view row;
      const Status s = table.ReadPinned(key, &pins, &row);
      if (s.IsIOError()) return s;
      if (!s.ok()) {
        AddDivergence(&report, "key " + std::to_string(key) +
                                   " unreadable: " + s.ToString());
      } else if (row != std::string_view(images.data() + j * row_bytes,
                                         row_bytes)) {
        AddDivergence(&report, "key " + std::to_string(key) +
                                   " diverges from committed version " +
                                   std::to_string(shadow->versions[key]));
      }
    }
  }

  // Completeness: with every shadow key verified present, an index count
  // equal to the shadow population rules out phantom keys too.
  const StatusOr<uint64_t> count = table.CountFrom(0);
  if (!count.ok()) {
    AddDivergence(&report, "index sweep failed: " + count.status().ToString());
  } else if (*count != shadow->population()) {
    AddDivergence(&report,
                  "index holds " + std::to_string(*count) + " keys, shadow " +
                      std::to_string(shadow->population()));
  }

  // Flash-directory audit.
  if (cache != nullptr) {
    const Status inv = cache->CheckInvariants();
    if (!inv.ok()) {
      ++report.invariant_violations;
      if (report.details.size() < kMaxDetails) {
        report.details.push_back("cache invariants: " + inv.ToString());
      }
    }
    if (auto* fc = dynamic_cast<FaceCache*>(cache)) {
      const StatusOr<uint64_t> audited = fc->AuditFrames();
      if (!audited.ok()) {
        ++report.invariant_violations;
        if (report.details.size() < kMaxDetails) {
          report.details.push_back("FaCE frame audit: " +
                                   audited.status().ToString());
        }
      } else {
        report.frames_audited = *audited;
      }
    }
  }
  return report;
}

}  // namespace fault
}  // namespace face
