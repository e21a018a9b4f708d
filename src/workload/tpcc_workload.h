// TPC-C as a plug-in workload: TpccDriver adapts the existing
// tpcc::Workload transaction mix (and tpcc::Loader bulk load, via
// TpccFactory) to the generic Workload interface, so the paper's workload
// is just the default driver the testbed runs — with byte-identical
// behavior to the old hard-wired path (same seeds, same NURand streams,
// same stranded-transaction protocol).
#pragma once

#include <memory>

#include "tpcc/loader.h"
#include "tpcc/tables.h"
#include "tpcc/workload.h"
#include "workload/workload.h"

namespace face {
namespace workload {

/// Generic-interface adapter over the TPC-C mix; see file comment.
class TpccDriver : public Workload {
 public:
  /// `config.seed` is overridden by Setup()'s seed.
  explicit TpccDriver(const tpcc::WorkloadConfig& config) : config_(config) {}

  const char* name() const override { return "tpcc"; }
  uint32_t num_txn_types() const override { return 5; }
  const char* txn_type_name(uint8_t type) const override {
    return tpcc::TxnTypeName(static_cast<tpcc::TxnType>(type));
  }

  Status Setup(Database& db, uint64_t seed) override;
  StatusOr<uint8_t> NextTxn(Database& db, Random& rnd) override;
  /// The Payment-shaped uncommitted update the paper's kill -9 protocol
  /// strands (~50 backends mid-flight).
  Status InjectStranded(Database& db, Random& rnd) override;

  void ResetStats() override;

  /// The adapted TPC-C driver/tables (null before Setup). Tests that poke
  /// TPC-C internals go through these.
  tpcc::Workload* inner() { return inner_.get(); }
  tpcc::Tables* tables() { return tables_.get(); }

 private:
  tpcc::WorkloadConfig config_;
  std::unique_ptr<tpcc::Tables> tables_;
  std::unique_ptr<tpcc::Workload> inner_;
  uint64_t inner_aborts_seen_ = 0;
};

/// Builds TPC-C golden images (tpcc::Loader) and TpccDrivers.
class TpccFactory : public WorkloadFactory {
 public:
  explicit TpccFactory(uint32_t warehouses) {
    config_.warehouses = warehouses;
  }
  explicit TpccFactory(const tpcc::WorkloadConfig& config)
      : config_(config) {}

  const char* name() const override { return "tpcc"; }
  uint64_t CapacityPages() const override {
    return CapacityPagesFor(config_.warehouses);
  }
  Status Load(Database& db, uint64_t seed) const override;
  std::unique_ptr<Workload> Create() const override {
    return std::make_unique<TpccDriver>(config_);
  }

  /// Partition by warehouse: shard `shard` owns its slice of the warehouse
  /// range (TPC-C's natural sharding key). The slice is re-based at
  /// warehouse 1, so remote customers and supply warehouses are drawn from
  /// the shard's own slice: sharded runs are per-shard TPC-C, not
  /// distributed TPC-C. Null once shards outnumber warehouses.
  std::shared_ptr<const WorkloadFactory> Partition(
      uint32_t shard, uint32_t num_shards) const override {
    const uint64_t w = ShardSlice(config_.warehouses, shard, num_shards);
    if (w == 0) return nullptr;
    tpcc::WorkloadConfig c = config_;
    c.warehouses = static_cast<uint32_t>(w);
    return std::make_shared<TpccFactory>(c);
  }

  /// Device pages a `warehouses`-scale image provisions (the historical
  /// GoldenImage sizing rule).
  static uint64_t CapacityPagesFor(uint32_t warehouses) {
    return 40000ull * warehouses + 20000ull;
  }

  uint32_t warehouses() const { return config_.warehouses; }

 private:
  tpcc::WorkloadConfig config_;
};

}  // namespace workload
}  // namespace face
