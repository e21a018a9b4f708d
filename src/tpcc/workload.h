// The five TPC-C transactions (standard §2.4–§2.8) against the engine, and
// the weighted-mix driver that issues them. Keying and think times are
// zero, like the paper's BenchmarkSQL runs: the system is I/O bound and the
// metric is throughput.
//
// Two simplifications, both common research practice and documented
// here: Delivery runs inline rather than deferred/queued, and the driver
// picks transaction types by weighted random rather than card-deck.
#pragma once

#include <cstdint>
#include <string>

#include "common/random.h"
#include "common/status.h"
#include "engine/database.h"
#include "tpcc/tables.h"

namespace face {
namespace tpcc {

/// The five transaction profiles.
enum class TxnType : uint8_t {
  kNewOrder = 0,
  kPayment = 1,
  kOrderStatus = 2,
  kDelivery = 3,
  kStockLevel = 4,
};

/// Printable transaction-type name.
const char* TxnTypeName(TxnType type);

/// Workload shape (the transaction mix is fixed; see workload.cc).
struct WorkloadConfig {
  uint32_t warehouses = 1;
  uint64_t seed = 42;
};

/// Per-type and aggregate outcome counters.
struct WorkloadStats {
  uint64_t completed[5] = {};
  uint64_t user_aborts = 0;  ///< NewOrder §2.4.1.4 1 % rollbacks

  uint64_t total() const {
    uint64_t t = 0;
    for (uint64_t c : completed) t += c;
    return t;
  }
  uint64_t new_orders() const {
    return completed[static_cast<int>(TxnType::kNewOrder)];
  }
};

/// TPC-C transaction mix over one database; see file comment.
class Workload {
 public:
  Workload(Database* db, Tables* tables, const WorkloadConfig& config)
      : db_(db), t_(tables), config_(config), rnd_(config.seed) {}

  /// Pick a type per the mix and run it to commit (or §2.4.1.4 rollback).
  /// Returns the type that ran.
  StatusOr<TxnType> RunOne();

  // Individual transactions, each a complete begin..commit unit.
  // `w_id` is the home warehouse (the paper's clients are not partitioned,
  // so the driver picks it uniformly).
  Status NewOrder(uint32_t w_id);
  Status Payment(uint32_t w_id);
  Status OrderStatus(uint32_t w_id);
  Status Delivery(uint32_t w_id);
  Status StockLevel(uint32_t w_id, uint32_t d_id);

  const WorkloadStats& stats() const { return stats_; }
  void ResetStats() { stats_ = WorkloadStats(); }
  TpccRandom& random() { return rnd_; }

 private:
  /// §2.5.2.2: select a customer 60 % by last name (midpoint rule), 40 % by
  /// NURand id. Returns the customer heap Rid.
  StatusOr<Rid> SelectCustomer(uint32_t w_id, uint32_t d_id);

  /// Read a heap row through a PK index.
  StatusOr<Rid> LookupRid(const BPlusTree& index, const std::string& key);

  Database* db_;
  Tables* t_;
  WorkloadConfig config_;
  TpccRandom rnd_;
  WorkloadStats stats_;
  uint64_t date_counter_ = 1000;  ///< monotonically increasing "now"
  std::string rid_buf_;  ///< reused index-lookup value buffer
};

}  // namespace tpcc
}  // namespace face
