// Decorators that time the workload layer from outside the program: a
// WorkloadFactory whose Load() runs inside a "workload/Load" span, and a
// Workload whose NextTxn() runs inside a per-transaction "workload/NextTxn"
// span when the recorder is traced. Everything else forwards unchanged, so
// the testbed drives exactly the wrapped workload's transactions.
#pragma once

#include <memory>
#include <utility>

#include "spans.h"
#include "workload/workload.h"

namespace face {
namespace perfbench {

class TimedWorkload : public workload::Workload {
 public:
  TimedWorkload(std::unique_ptr<workload::Workload> inner, SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  const char* name() const override { return inner_->name(); }
  uint32_t num_txn_types() const override { return inner_->num_txn_types(); }
  const char* txn_type_name(uint8_t type) const override {
    return inner_->txn_type_name(type);
  }

  Status Setup(Database& db, uint64_t seed) override {
    const Status s = inner_->Setup(db, seed);
    stats_ = inner_->stats();
    return s;
  }

  StatusOr<uint8_t> NextTxn(Database& db, Random& rnd) override {
    int span = -1;
    if (rec_->traced()) {
      span = rec_->Open("workload", "NextTxn", rec_->NextTxnId());
    }
    StatusOr<uint8_t> type = inner_->NextTxn(db, rnd);
    if (span >= 0) rec_->Close(span);
    // The testbed reads the base-class counters; mirror the inner driver's.
    stats_ = inner_->stats();
    return type;
  }

  Status InjectStranded(Database& db, Random& rnd) override {
    const Status s = inner_->InjectStranded(db, rnd);
    stats_ = inner_->stats();
    return s;
  }

  Status OnInflightRolledBack(Database& db) override {
    return inner_->OnInflightRolledBack(db);
  }

  void ResetStats() override {
    inner_->ResetStats();
    stats_ = inner_->stats();
  }

 private:
  std::unique_ptr<workload::Workload> inner_;
  SpanRecorder* rec_;
};

class TimedFactory : public workload::WorkloadFactory {
 public:
  TimedFactory(std::shared_ptr<const workload::WorkloadFactory> inner,
               SpanRecorder* rec)
      : inner_(std::move(inner)), rec_(rec) {}

  const char* name() const override { return inner_->name(); }
  uint64_t CapacityPages() const override { return inner_->CapacityPages(); }

  Status Load(Database& db, uint64_t seed) const override {
    SpanRecorder::Scope span(rec_, "workload", "Load");
    return inner_->Load(db, seed);
  }

  std::unique_ptr<workload::Workload> Create() const override {
    return std::make_unique<TimedWorkload>(inner_->Create(), rec_);
  }

 private:
  std::shared_ptr<const workload::WorkloadFactory> inner_;
  SpanRecorder* rec_;
};

}  // namespace perfbench
}  // namespace face
