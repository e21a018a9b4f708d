// YCSB-style key-value workload over one KV table: configurable
// read/update/insert/scan mix and uniform / Zipfian / latest-hot key
// distributions — the axes the flash-cache follow-up literature (Flashield,
// WLFC) varies and TPC-C alone cannot. Each operation is one complete
// engine transaction, so the cache hierarchy below sees the same WAL /
// buffer-pool / eviction traffic pattern a real OLTP client would produce.
#pragma once

#include <memory>
#include <string>

#include "common/random.h"
#include "workload/kv_table.h"
#include "workload/workload.h"

namespace face {
namespace workload {

/// Shape of a YCSB-style run. Defaults are an update-heavy Zipfian mix
/// (YCSB-A shaped); the presets below mirror the standard workload letters.
struct YcsbOptions {
  enum class Distribution : uint8_t { kUniform = 0, kZipfian = 1, kLatest = 2 };

  /// Initially loaded records (keys [0, records)); inserts append after.
  uint64_t records = 50000;
  /// Payload bytes per row (fixed width: updates overwrite in place).
  uint32_t value_bytes = 400;

  Distribution distribution = Distribution::kZipfian;
  /// Zipfian skew (~0.99 = standard YCSB hot set).
  double zipf_theta = 0.99;

  /// Operation mix (percent; must sum to 100).
  int pct_read = 50;
  int pct_update = 44;
  int pct_insert = 3;
  int pct_scan = 3;
  /// Scans read 1..max_scan_rows rows (uniform length).
  uint32_t max_scan_rows = 25;

  /// Populate the golden image through the sorted B+tree bulk-load path
  /// (leaves built left-to-right, device-contiguous). False routes the load
  /// through per-record inserts — slower, but reproduces the physical page
  /// layout of an incrementally grown tree (the timing guard pins it).
  bool bulk_load = true;

  // --- standard mixes -------------------------------------------------------
  static YcsbOptions A() {  // update heavy: 50/50 read/update, Zipfian
    YcsbOptions o;
    o.pct_read = 50, o.pct_update = 50, o.pct_insert = 0, o.pct_scan = 0;
    return o;
  }
  static YcsbOptions B() {  // read mostly: 95/5
    YcsbOptions o;
    o.pct_read = 95, o.pct_update = 5, o.pct_insert = 0, o.pct_scan = 0;
    return o;
  }
  static YcsbOptions C() {  // read only
    YcsbOptions o;
    o.pct_read = 100, o.pct_update = 0, o.pct_insert = 0, o.pct_scan = 0;
    return o;
  }
  static YcsbOptions D() {  // read latest: 95 % reads skewed to fresh inserts
    YcsbOptions o;
    o.distribution = Distribution::kLatest;
    o.pct_read = 95, o.pct_update = 0, o.pct_insert = 5, o.pct_scan = 0;
    return o;
  }
  static YcsbOptions E() {  // short ranges: 95 % scans, 5 % inserts
    YcsbOptions o;
    o.pct_read = 0, o.pct_update = 0, o.pct_insert = 5, o.pct_scan = 95;
    return o;
  }
  /// `distribution` applied to the default mix ("ycsb-uniform" etc.).
  static YcsbOptions WithDistribution(Distribution d) {
    YcsbOptions o;
    o.distribution = d;
    return o;
  }
};

/// YCSB driver; see file comment.
class YcsbWorkload : public Workload {
 public:
  enum TxnType : uint8_t { kRead = 0, kUpdate = 1, kInsert = 2, kScan = 3 };

  explicit YcsbWorkload(const YcsbOptions& options);

  const char* name() const override;
  uint32_t num_txn_types() const override { return 4; }
  const char* txn_type_name(uint8_t type) const override;

  Status Setup(Database& db, uint64_t seed) override;
  StatusOr<uint8_t> NextTxn(Database& db, Random& rnd) override;
  Status InjectStranded(Database& db, Random& rnd) override;

  /// Key chosen for the next point operation (exposed for distribution
  /// shape tests).
  uint64_t ChooseKey(Random& rnd);

  const YcsbOptions& options() const { return opts_; }
  /// Records inserted beyond the initial load (recovered across crashes).
  uint64_t inserted() const { return inserted_; }

 private:
  YcsbOptions opts_;
  KvTable table_;
  std::unique_ptr<ZipfGenerator> zipf_;
  uint64_t inserted_ = 0;
  uint64_t version_ = 0;  ///< monotonically fresh payload versions
};

/// Builds YCSB golden images and drivers from one shared YcsbOptions.
class YcsbFactory : public WorkloadFactory {
 public:
  explicit YcsbFactory(const YcsbOptions& options) : opts_(options) {}

  const char* name() const override;
  uint64_t CapacityPages() const override;
  Status Load(Database& db, uint64_t seed) const override;
  std::unique_ptr<Workload> Create() const override;
  /// Partition by key range: shard `shard` owns records/num_shards keys
  /// (re-based at zero — each shard is an independent database).
  std::shared_ptr<const WorkloadFactory> Partition(
      uint32_t shard, uint32_t num_shards) const override;

  const YcsbOptions& options() const { return opts_; }

 private:
  YcsbOptions opts_;
};

}  // namespace workload
}  // namespace face
