// The sharded testbed: per-shard determinism (same seed -> bit-identical
// per-shard simulated fingerprints, at any shard count, on any thread
// interleaving), exact equivalence of a one-shard ShardedTestbed with a
// plain Testbed, throughput scale-up, and workload partitioning.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "testbed/sharded_testbed.h"
#include "tests/test_util.h"
#include "workload/ycsb_workload.h"

namespace face {
namespace {

using workload::YcsbFactory;
using workload::YcsbOptions;

std::shared_ptr<YcsbFactory> SmallYcsb(uint64_t records = 8000) {
  YcsbOptions o;
  o.records = records;
  o.value_bytes = 120;
  return std::make_shared<YcsbFactory>(o);
}

ShardedTestbedOptions SmallConfig(uint32_t shards, uint64_t records = 8000) {
  ShardedTestbedOptions so;
  so.shards = shards;
  so.base.clients = 8;
  so.base.seed = 42;
  so.base.policy = CachePolicy::kFace;
  so.base.buffer_frames = 128;
  so.factory = SmallYcsb(records);
  so.flash_ratio = 0.1;  // cache scales with each shard's slice
  return so;
}

/// The exact-integer shape of one shard's run — any drift fails.
struct ShardFingerprint {
  uint64_t duration, txns, primary, db_busy, log_busy, flash_busy, db_pages,
      log_pages, flash_pages, lookups, hits;

  bool operator==(const ShardFingerprint& o) const {
    return duration == o.duration && txns == o.txns && primary == o.primary &&
           db_busy == o.db_busy && log_busy == o.log_busy &&
           flash_busy == o.flash_busy && db_pages == o.db_pages &&
           log_pages == o.log_pages && flash_pages == o.flash_pages &&
           lookups == o.lookups && hits == o.hits;
  }
};

ShardFingerprint FingerprintOf(const RunResult& r) {
  return ShardFingerprint{r.duration,
                          r.txns,
                          r.primary_txns,
                          r.db_stats.busy_ns,
                          r.log_stats.busy_ns,
                          r.flash_stats.busy_ns,
                          r.db_stats.total_pages(),
                          r.log_stats.total_pages(),
                          r.flash_stats.total_pages(),
                          r.cache_stats.lookups,
                          r.cache_stats.hits};
}

/// Start, warm up, run, and fingerprint every shard of one configuration.
std::vector<ShardFingerprint> MeasureShards(const ShardedTestbedOptions& so,
                                            uint64_t warmup, uint64_t txns) {
  ShardedTestbed stb(so);
  if (!stb.Start().ok() || !stb.Warmup(warmup).ok()) return {};
  RunOptions run;
  run.txns = txns;
  run.checkpoint_interval = 3 * kNanosPerSecond;
  std::vector<RunResult> per_shard;
  if (!stb.Run(run, &per_shard).ok()) return {};
  std::vector<ShardFingerprint> fps;
  for (const RunResult& r : per_shard) fps.push_back(FingerprintOf(r));
  return fps;
}

TEST(ShardTest, PerShardDeterminismAcrossShardCounts) {
  // The contract: rebuilding the whole rig and replaying the same seed
  // reproduces every shard's virtual-time execution exactly, no matter how
  // the worker threads interleave in wall time — at every shard count.
  for (const uint32_t shards : {1u, 2u, 4u}) {
    const auto first = MeasureShards(SmallConfig(shards), 150, 250);
    ASSERT_EQ(first.size(), shards) << "run failed at " << shards << " shards";
    const auto second = MeasureShards(SmallConfig(shards), 150, 250);
    ASSERT_EQ(second.size(), shards);
    for (uint32_t i = 0; i < shards; ++i) {
      EXPECT_TRUE(first[i] == second[i])
          << "shard " << i << "/" << shards
          << " diverged between identical replays (duration " << first[i].duration
          << " vs " << second[i].duration << ", txns " << first[i].txns
          << " vs " << second[i].txns << ")";
    }
  }
}

TEST(ShardTest, ShardsRunDecorrelatedStreams) {
  // Different shards derive different seeds: their fingerprints must not
  // be copies of each other (same txns per shard, different schedules).
  const auto fps = MeasureShards(SmallConfig(2), 150, 250);
  ASSERT_EQ(fps.size(), 2u);
  EXPECT_FALSE(fps[0] == fps[1]);
}

TEST(ShardTest, OneShardMatchesPlainTestbed) {
  // A one-shard ShardedTestbed must be observationally identical to the
  // plain Testbed it wraps: same golden, same seed, same virtual schedule.
  const ShardedTestbedOptions so = SmallConfig(1);

  FACE_ASSERT_OK_AND_ASSIGN(GoldenImage golden,
                            GoldenImage::BuildFor(so.factory, so.golden_seed));
  TestbedOptions to = so.base;
  to.flash_pages = static_cast<uint64_t>(
      so.flash_ratio * static_cast<double>(golden.db_pages()));
  Testbed plain(to, &golden);
  FACE_ASSERT_OK(plain.Start());
  FACE_ASSERT_OK(plain.Warmup(150));
  RunOptions run;
  run.txns = 250;
  run.checkpoint_interval = 3 * kNanosPerSecond;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult plain_result, plain.Run(run));

  ShardedTestbed stb(so);
  FACE_ASSERT_OK(stb.Start());
  FACE_ASSERT_OK(stb.Warmup(150));
  FACE_ASSERT_OK_AND_ASSIGN(RunResult sharded_result, stb.Run(run));

  EXPECT_TRUE(FingerprintOf(plain_result) == FingerprintOf(sharded_result))
      << "one-shard rig diverged from the plain testbed: duration "
      << plain_result.duration << " vs " << sharded_result.duration;
}

TEST(ShardTest, ThroughputScalesWithShards) {
  // Fig. 5-style scale-up: the same per-shard work at 4 shards finishes in
  // roughly the single-shard makespan, so machine throughput multiplies.
  // (Per-shard slice held constant: total records scale with the count.)
  auto tpm_at = [&](uint32_t shards) -> double {
    ShardedTestbedOptions so = SmallConfig(shards, 4000 * shards);
    ShardedTestbed stb(so);
    EXPECT_TRUE(stb.Start().ok());
    EXPECT_TRUE(stb.Warmup(150).ok());
    RunOptions run;
    run.txns = 250;
    auto merged = stb.Run(run);
    EXPECT_TRUE(merged.ok());
    return merged.ok() ? merged->Tpm() : 0.0;
  };
  const double tpm1 = tpm_at(1);
  const double tpm4 = tpm_at(4);
  EXPECT_GT(tpm4, 2.0 * tpm1)
      << "4 shards only reached " << tpm4 << " tpm vs " << tpm1
      << " on one shard";
}

TEST(ShardTest, PartitionSlicesCoverTheWholeWorkload) {
  const auto factory = SmallYcsb(1001);  // deliberately not divisible
  uint64_t total = 0;
  for (uint32_t i = 0; i < 4; ++i) {
    const auto slice = factory->Partition(i, 4);
    ASSERT_NE(slice, nullptr);
    total += std::static_pointer_cast<const YcsbFactory>(slice)
                 ->options().records;
  }
  EXPECT_EQ(total, 1001u);
  // More shards than records: the overflowing shards must refuse.
  EXPECT_EQ(SmallYcsb(3)->Partition(3, 4), nullptr);
}

}  // namespace
}  // namespace face
