// The crash storm: seeded-random crash points against every cache policy,
// each recovery validated by the differential checker (shadow logical table
// + flash-directory audit). Deterministic per seed:
//
//   CRASH_STORM_SEEDS       storms per policy (default 20; CI's slow job
//                           runs 200)
//   CRASH_STORM_BASE_SEED   first seed (default 1) — to replay a failure,
//                           run with CRASH_STORM_SEEDS=1 and the base seed
//                           set to the failing seed
//
// Also here: the paper's recovery observation (Table 6) as a regression
// guard — a FaCE restart after a warmed-up crash serves >90 % of its
// recovery page fetches from flash — the sabotage run proving the checker
// catches a deliberately-broken recovery path, and single-row plants (one
// byte off, or one version ahead) the checker must name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/coding.h"
#include "core/face_cache.h"
#include "core/flash_layout.h"
#include "core/tac_cache.h"
#include "testbed/crash_storm.h"
#include "testbed/sharded_testbed.h"
#include "tests/test_util.h"
#include "workload/kv_table.h"
#include "workload/ycsb_workload.h"

namespace face {
namespace {

uint64_t EnvOr(const char* name, uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
}

uint64_t StormSeeds() { return EnvOr("CRASH_STORM_SEEDS", 20); }
uint64_t BaseSeed() { return EnvOr("CRASH_STORM_BASE_SEED", 1); }

/// One-line replay of `seed` under the running test, appended to every
/// failing per-seed check so a red storm can be rerun on its own.
std::string Repro(uint64_t seed) {
  const ::testing::TestInfo* t =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return "\nrepro: CRASH_STORM_SEEDS=1 CRASH_STORM_BASE_SEED=" +
         std::to_string(seed) + " ./build/crash_storm_test --gtest_filter=" +
         t->test_suite_name() + "." + t->name();
}

/// Run `seeds` storms for one policy; every recovery must pass the
/// differential checker, and a healthy majority of storms must actually
/// trip the injector mid-run (otherwise the test is not testing crashes).
void RunStorms(CachePolicy policy) {
  CrashStormOptions opts;
  opts.policy = policy;
  CrashStormHarness harness(opts);

  const uint64_t seeds = StormSeeds();
  const uint64_t base = BaseSeed();
  uint64_t tripped = 0;
  for (uint64_t seed = base; seed < base + seeds; ++seed) {
    auto result = harness.RunStorm(seed);
    ASSERT_TRUE(result.ok()) << "policy " << CachePolicyName(policy)
                             << " seed " << seed << ": "
                             << result.status().ToString() << Repro(seed);
    EXPECT_TRUE(result->diff.ok())
        << "policy " << CachePolicyName(policy) << " seed " << seed << "\n"
        << result->ToString() << Repro(seed);
    if (result->crashed_mid_body) ++tripped;
  }
  EXPECT_GE(tripped, seeds / 2)
      << "too few storms tripped the injector — crash window mis-sized";
  ::testing::Test::RecordProperty("storms", static_cast<int>(seeds));
  ::testing::Test::RecordProperty("tripped", static_cast<int>(tripped));

  // Every storm's restart contributes its per-phase durations; the campaign
  // summary shows where recovery time goes for this policy.
  EXPECT_EQ(harness.phase_aggregate().restarts(), seeds);
  std::cout << "[ " << CachePolicyName(policy) << " ] "
            << harness.phase_aggregate().ToString() << "\n";
}

TEST(CrashStormTest, Face) { RunStorms(CachePolicy::kFace); }
TEST(CrashStormTest, Lc) { RunStorms(CachePolicy::kLc); }
TEST(CrashStormTest, Tac) { RunStorms(CachePolicy::kTac); }
TEST(CrashStormTest, Exadata) { RunStorms(CachePolicy::kExadata); }
TEST(CrashStormTest, NoCache) { RunStorms(CachePolicy::kNone); }

/// Every seed keeps the injector armed through restart: power fails again
/// while redo/undo is writing, and the next recovery starts from the torn
/// remains of the first. Deterministic per seed; the campaign must
/// actually double-fault, and every final recovery must check clean.
void RunDoubleFaultStorms(CachePolicy policy) {
  CrashStormOptions opts;
  opts.policy = policy;
  opts.double_fault_pct = 100;
  CrashStormHarness harness(opts);

  const uint64_t seeds = std::max<uint64_t>(8, StormSeeds() / 2);
  const uint64_t base = BaseSeed();
  uint64_t double_faulted = 0;
  for (uint64_t seed = base; seed < base + seeds; ++seed) {
    auto result = harness.RunStorm(seed);
    ASSERT_TRUE(result.ok()) << "policy " << CachePolicyName(policy)
                             << " seed " << seed << ": "
                             << result.status().ToString() << Repro(seed);
    EXPECT_TRUE(result->diff.ok())
        << "policy " << CachePolicyName(policy) << " seed " << seed << "\n"
        << result->ToString() << Repro(seed);
    if (result->double_faulted) ++double_faulted;
  }
  // Recovery always writes (CLRs, the final checkpoint), so a countdown of
  // at most 24 writes should trip for most seeds.
  EXPECT_GE(double_faulted, seeds / 2)
      << "too few recoveries were themselves cut down";
  std::cout << "[ double fault, " << CachePolicyName(policy) << " ] "
            << double_faulted << "/" << seeds
            << " storms crashed during recovery\n";
}

TEST(CrashStormTest, CrashDuringRecoveryFace) {
  RunDoubleFaultStorms(CachePolicy::kFace);
}
TEST(CrashStormTest, CrashDuringRecoveryFaceGsc) {
  RunDoubleFaultStorms(CachePolicy::kFaceGSC);
}
TEST(CrashStormTest, CrashDuringRecoveryLc) {
  RunDoubleFaultStorms(CachePolicy::kLc);
}
TEST(CrashStormTest, CrashDuringRecoveryTac) {
  RunDoubleFaultStorms(CachePolicy::kTac);
}
TEST(CrashStormTest, CrashDuringRecoveryExadata) {
  RunDoubleFaultStorms(CachePolicy::kExadata);
}
TEST(CrashStormTest, CrashDuringRecoveryNoCache) {
  RunDoubleFaultStorms(CachePolicy::kNone);
}

TEST(CrashStormTest, GroupSecondChance) {
  // Bonus coverage for the batched replacement paths (staged frames cut
  // mid-batch-flush): a quarter of the default seed budget.
  CrashStormOptions opts;
  opts.policy = CachePolicy::kFaceGSC;
  CrashStormHarness harness(opts);
  const uint64_t seeds = std::max<uint64_t>(5, StormSeeds() / 4);
  for (uint64_t seed = BaseSeed(); seed < BaseSeed() + seeds; ++seed) {
    auto result = harness.RunStorm(seed);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status().ToString() << Repro(seed);
    EXPECT_TRUE(result->diff.ok()) << "seed " << seed << "\n"
                                   << result->ToString() << Repro(seed);
  }
}

TEST(CrashStormTest, DeliberatelyBrokenRecoveryIsCaught) {
  // Wipe the FaCE superblock after each crash: the cache cold-formats
  // instead of restoring its metadata, so pages whose only current copy
  // lived in flash come back stale. The differential checker must see it.
  CrashStormOptions opts;
  opts.policy = CachePolicy::kFace;
  opts.sabotage = Sabotage::kWipeFlashSuperblock;
  CrashStormHarness harness(opts);

  uint64_t storms_with_divergence = 0;
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    auto result = harness.RunStorm(seed);
    ASSERT_TRUE(result.ok()) << "seed " << seed << ": "
                             << result.status().ToString();
    if (result->diff.divergences > 0) ++storms_with_divergence;
  }
  EXPECT_GT(storms_with_divergence, 0u)
      << "the checker failed to notice a recovery that discards the flash "
         "cache's persistent metadata";
}

TEST(RecoveryFromFlashTest, FaceServesRecoveryPagesFromFlash) {
  // Table 6's companion observation: with the cache warm, restart reads
  // its pages from flash, not the disk array (paper: >98 %; we guard 0.9
  // to leave slack for small-scale noise).
  fault::ShadowKvOptions wo;
  wo.records = 1000;
  wo.value_bytes = 160;
  auto shadow = std::make_shared<fault::ShadowState>();
  auto factory = std::make_shared<fault::ShadowKvFactory>(wo, shadow);
  shadow->Reset(wo.records, wo.value_bytes);
  FACE_ASSERT_OK_AND_ASSIGN(GoldenImage golden, GoldenImage::BuildFor(factory));

  TestbedOptions to;
  to.clients = 8;
  to.seed = 7;
  to.workload = factory;
  to.buffer_frames = 64;
  to.flash_pages = 2048;  // ample: the whole working set fits on flash
  to.policy = CachePolicy::kFace;
  Testbed tb(to, &golden);
  FACE_ASSERT_OK(tb.Start());

  RunOptions warm;
  warm.txns = 1200;  // push the working set through DRAM into flash
  FACE_ASSERT_OK(tb.Run(warm).status());
  FACE_ASSERT_OK(tb.db()->TakeCheckpoint().status());
  RunOptions more;
  more.txns = 300;  // post-checkpoint work = redo's fetch load
  FACE_ASSERT_OK(tb.Run(more).status());
  FACE_ASSERT_OK(tb.InjectInflightTransactions(3));

  FACE_ASSERT_OK(tb.Crash());
  FACE_ASSERT_OK_AND_ASSIGN(RestartReport report, tb.Recover());
  ASSERT_GT(report.pages_fetched, 20u)
      << "recovery did too little work to measure: " << report.ToString();
  EXPECT_GT(report.FlashFetchFraction(), 0.9) << report.ToString();

  // The recovered state must still be exactly the committed history.
  FACE_ASSERT_OK_AND_ASSIGN(
      fault::DiffReport diff,
      fault::RunDifferentialCheck(*tb.db(), shadow.get(), tb.cache()));
  EXPECT_TRUE(diff.ok()) << diff.ToString();
}

// --- the checker's own sensitivity ------------------------------------------
// A checker that passes everything proves nothing: a row that differs from
// its expected image in a single byte, or sits at the wrong version, must
// be reported as a divergence of exactly that key.

class DiffCheckerTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kRecords = 300;
  static constexpr uint32_t kValueBytes = 160;

  void SetUp() override {
    fault::ShadowKvOptions wo;
    wo.records = kRecords;
    wo.value_bytes = kValueBytes;
    shadow_ = std::make_shared<fault::ShadowState>();
    auto factory = std::make_shared<fault::ShadowKvFactory>(wo, shadow_);
    shadow_->Reset(wo.records, wo.value_bytes);
    FACE_ASSERT_OK_AND_ASSIGN(golden_, GoldenImage::BuildFor(factory));

    TestbedOptions to;
    to.clients = 4;
    to.seed = 3;
    to.workload = factory;
    to.buffer_frames = 64;
    to.flash_pages = 256;
    to.policy = CachePolicy::kFace;
    tb_ = std::make_unique<Testbed>(to, &golden_);
    FACE_ASSERT_OK(tb_->Start());
    RunOptions run;
    run.txns = 200;  // some keys move past version 0
    FACE_ASSERT_OK(tb_->Run(run).status());
  }

  /// `key`'s row image at its committed shadow version.
  std::string Expected(uint64_t key) const {
    std::string row;
    workload::KvTable::RowTo(&row, key, kValueBytes, shadow_->versions[key]);
    return row;
  }

  /// Overwrite `key`'s heap row with `row` in a committed transaction the
  /// shadow never hears about.
  void Plant(uint64_t key, const std::string& row) {
    Database& db = *tb_->db();
    FACE_ASSERT_OK_AND_ASSIGN(workload::KvTable table,
                              workload::KvTable::Open(db));
    std::string rid;
    FACE_ASSERT_OK(table.pk.Get(workload::KvTable::Key(key), &rid));
    const TxnId txn = db.Begin();
    PageWriter w = db.Writer(txn);
    FACE_ASSERT_OK(table.rows.Update(&w, DecodeRid(rid), row));
    FACE_ASSERT_OK(db.Commit(txn));
  }

  /// The divergence lines the per-row sweep writes for the current state:
  /// one KvTable::Read per key, in key order, worded as the checker words
  /// them.
  std::vector<std::string> PerRowDetails() {
    std::vector<std::string> lines;
    StatusOr<workload::KvTable> table = workload::KvTable::Open(*tb_->db());
    EXPECT_TRUE(table.ok()) << table.status().ToString();
    if (!table.ok()) return lines;
    std::string row;
    for (uint64_t key = 0; key < shadow_->population(); ++key) {
      const Status s = table->Read(key, &row);
      if (!s.ok()) {
        lines.push_back("key " + std::to_string(key) +
                        " unreadable: " + s.ToString());
      } else if (row != Expected(key)) {
        lines.push_back("key " + std::to_string(key) +
                        " diverges from committed version " +
                        std::to_string(shadow_->versions[key]));
      }
    }
    return lines;
  }

  /// Overwrite `bytes.size()` bytes of page `page_id` at `offset` in a
  /// committed transaction (the WAL carries it like any engine write).
  void PlantBytes(PageId page_id, uint16_t offset, const std::string& bytes) {
    Database& db = *tb_->db();
    const TxnId txn = db.Begin();
    PageWriter w = db.Writer(txn);
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle page, db.pool()->FetchPage(page_id));
    FACE_ASSERT_OK(w.Apply(&page, offset, bytes.data(),
                           static_cast<uint32_t>(bytes.size())));
    page.Release();
    FACE_ASSERT_OK(db.Commit(txn));
  }

  /// The check must report exactly what the per-row sweep reports, one
  /// line about `key`, and come out clean once `restore` has run.
  template <typename Restore>
  void ExpectReportedAsPerRow(uint64_t key, const std::string& prefix,
                              const Restore& restore) {
    const std::vector<std::string> per_row = PerRowDetails();
    ASSERT_EQ(per_row.size(), 1u);
    EXPECT_EQ(per_row[0].rfind("key " + std::to_string(key) + prefix, 0), 0u)
        << per_row[0];
    FACE_ASSERT_OK_AND_ASSIGN(
        fault::DiffReport diff,
        fault::RunDifferentialCheck(*tb_->db(), shadow_.get(), tb_->cache()));
    EXPECT_EQ(diff.divergences, 1u) << diff.ToString();
    EXPECT_EQ(diff.details, per_row) << diff.ToString();

    restore();
    FACE_ASSERT_OK_AND_ASSIGN(
        diff,
        fault::RunDifferentialCheck(*tb_->db(), shadow_.get(), tb_->cache()));
    EXPECT_TRUE(diff.ok()) << "restored\n" << diff.ToString();
  }

  /// The check must flag `key` alone; then the true image goes back and
  /// the check must come out clean again.
  void ExpectOnlyKeyDiverges(uint64_t key, const char* what) {
    FACE_ASSERT_OK_AND_ASSIGN(
        fault::DiffReport diff,
        fault::RunDifferentialCheck(*tb_->db(), shadow_.get(), tb_->cache()));
    EXPECT_EQ(diff.divergences, 1u) << what << "\n" << diff.ToString();
    ASSERT_FALSE(diff.details.empty()) << what;
    EXPECT_EQ(diff.details[0].rfind("key " + std::to_string(key) +
                                        " diverges",
                                    0),
              0u)
        << what << "\n" << diff.ToString();

    Plant(key, Expected(key));
    FACE_ASSERT_OK_AND_ASSIGN(
        diff,
        fault::RunDifferentialCheck(*tb_->db(), shadow_.get(), tb_->cache()));
    EXPECT_TRUE(diff.ok()) << what << " restored\n" << diff.ToString();
  }

  std::shared_ptr<fault::ShadowState> shadow_;
  GoldenImage golden_;
  std::unique_ptr<Testbed> tb_;
};

TEST_F(DiffCheckerTest, UntouchedStateIsClean) {
  FACE_ASSERT_OK_AND_ASSIGN(
      fault::DiffReport diff,
      fault::RunDifferentialCheck(*tb_->db(), shadow_.get(), tb_->cache()));
  EXPECT_TRUE(diff.ok()) << diff.ToString();
  EXPECT_EQ(diff.rows_checked, shadow_->population());
}

TEST_F(DiffCheckerTest, OneByteOffIsCaughtAnywhereInThePayload) {
  const uint64_t last = shadow_->population() - 1;
  const struct {
    uint64_t key;
    size_t offset;  // into the row; the payload starts after the 8-byte id
    const char* what;
  } cases[] = {
      {0, 8, "first payload byte"},
      {kRecords / 2, 8 + kValueBytes / 2, "middle payload byte"},
      {last, 8 + kValueBytes - 1, "last payload byte"},
  };
  for (const auto& c : cases) {
    std::string row = Expected(c.key);
    char& byte = row[c.offset];
    byte = byte == 'z' ? 'a' : static_cast<char>(byte + 1);
    Plant(c.key, row);
    ExpectOnlyKeyDiverges(c.key, c.what);
  }
}

TEST_F(DiffCheckerTest, WrongVersionIsCaught) {
  const uint64_t key = kRecords / 3;
  std::string row;
  workload::KvTable::RowTo(&row, key, kValueBytes,
                           shadow_->versions[key] + 1);
  Plant(key, row);
  ExpectOnlyKeyDiverges(key, "row one version ahead");
}

TEST_F(DiffCheckerTest, MidPageRowServedWithoutAFetchIsChecked) {
  // A key whose row, and its neighbours' rows, share one heap page and
  // one leaf: after its predecessor, ReadPinned serves it and its
  // successor without a single pool fetch.
  FACE_ASSERT_OK_AND_ASSIGN(workload::KvTable table,
                            workload::KvTable::Open(*tb_->db()));
  const BufferPool& pool = *tb_->db()->pool();
  uint64_t key = 0;
  {
    workload::KvTable::ReadPins pins;
    std::string_view row;
    for (uint64_t k = kRecords / 2; k + 1 < kRecords && key == 0; ++k) {
      FACE_ASSERT_OK(table.ReadPinned(k - 1, &pins, &row));
      const uint64_t fetches = pool.stats().fetches;
      FACE_ASSERT_OK(table.ReadPinned(k, &pins, &row));
      FACE_ASSERT_OK(table.ReadPinned(k + 1, &pins, &row));
      if (pool.stats().fetches == fetches) key = k;
    }
  }
  ASSERT_NE(key, 0u) << "no mid-page row found";

  std::string row = Expected(key);
  row[8 + kValueBytes / 2] ^= 0x01;
  Plant(key, row);
  ExpectReportedAsPerRow(key, " diverges", [&] { Plant(key, Expected(key)); });
}

TEST_F(DiffCheckerTest, CorruptSeparatorLeavesThePinnedPath) {
  // Lower the root's first separator S by one: key S-1 now descends into
  // S's subtree, off the path its predecessor pinned, and is not there.
  FACE_ASSERT_OK_AND_ASSIGN(workload::KvTable table,
                            workload::KvTable::Open(*tb_->db()));
  FACE_ASSERT_OK_AND_ASSIGN(uint32_t height, table.pk.Height());
  ASSERT_GE(height, 2u) << "the index needs an internal root";
  const PageId root = table.pk.root_page();
  // Internal cell layout (btree.h): [u16 klen][u64 child][key], located
  // by slot 0 after the 24-byte node header.
  uint16_t key_offset = 0;
  std::string separator;
  {
    FACE_ASSERT_OK_AND_ASSIGN(PageHandle page,
                              tb_->db()->pool()->FetchPage(root));
    const char* node = page.data() + kPageHeaderSize;
    const uint16_t cell = DecodeFixed16(node + 24);
    ASSERT_EQ(DecodeFixed16(node + cell), 8u);
    key_offset = static_cast<uint16_t>(kPageHeaderSize + cell + 10);
    separator.assign(page.data() + key_offset, 8);
  }
  uint64_t sep_id = 0;
  for (char c : separator) sep_id = (sep_id << 8) | static_cast<uint8_t>(c);
  ASSERT_GE(sep_id, 2u);
  ASSERT_EQ(workload::KvTable::Key(sep_id), separator);

  PlantBytes(root, key_offset, workload::KvTable::Key(sep_id - 1));
  ExpectReportedAsPerRow(sep_id - 1, " unreadable: NotFound", [&] {
    PlantBytes(root, key_offset, separator);
  });
}

// The sweep skips fetches, never their effect on the pool. Two clones of
// one post-restart state: one swept by the per-row Read loop, the other
// by RunDifferentialCheck. EvictAll then spills each pool, LRU tail
// first, into FaCE's FIFO queue (one frame written per admission), so
// equal queues and equal miss and eviction counts mean equal LRU order.
TEST(DiffCheckerEquivalenceTest, PinnedSweepLeavesThePoolAsThePerRowSweep) {
  fault::ShadowKvOptions wo;
  // ~150 pages of heap and index against 64 DRAM frames and 96 flash
  // frames: the sweeps miss to both flash and disk and evict throughout.
  wo.records = 3000;
  wo.value_bytes = 160;
  GoldenImage golden;
  {
    auto shadow = std::make_shared<fault::ShadowState>();
    shadow->Reset(wo.records, wo.value_bytes);
    FACE_ASSERT_OK_AND_ASSIGN(
        golden, GoldenImage::BuildFor(
                    std::make_shared<fault::ShadowKvFactory>(wo, shadow)));
  }
  struct Clone {
    std::shared_ptr<fault::ShadowState> shadow;
    std::unique_ptr<Testbed> tb;
  };
  const auto make_clone = [&](Clone* c) {
    c->shadow = std::make_shared<fault::ShadowState>();
    c->shadow->Reset(wo.records, wo.value_bytes);
    TestbedOptions to;
    to.clients = 8;
    to.seed = 21;
    to.workload = std::make_shared<fault::ShadowKvFactory>(wo, c->shadow);
    to.buffer_frames = 64;
    to.flash_pages = 96;
    to.policy = CachePolicy::kFace;
    c->tb = std::make_unique<Testbed>(to, &golden);
    FACE_ASSERT_OK(c->tb->Start());
    RunOptions run;
    run.txns = 600;
    FACE_ASSERT_OK(c->tb->Run(run).status());
    FACE_ASSERT_OK(c->tb->Crash());
    FACE_ASSERT_OK(c->tb->Recover().status());
    ASSERT_EQ(c->shadow->pending.kind, fault::PendingOp::Kind::kNone);
  };
  // FaCE's queue front to rear, as the page ids stamped in its frames.
  const auto face_queue = [](Testbed& tb) {
    auto* fc = dynamic_cast<FaceCache*>(tb.cache());
    std::vector<PageId> ids;
    if (fc == nullptr) return ids;
    std::string frame(kPageSize, '\0');
    tb.flash_dev()->set_timing_enabled(false);
    for (uint64_t seq = fc->front_seq(); seq < fc->rear_seq(); ++seq) {
      const uint64_t block = fc->layout().FrameBlock(seq);
      EXPECT_TRUE(tb.flash_dev()->Read(block, frame.data()).ok());
      ids.push_back(PageView(frame.data()).page_id());
    }
    tb.flash_dev()->set_timing_enabled(true);
    return ids;
  };
  const auto expect_same_pool = [&](Testbed& a, Testbed& b, const char* when) {
    const BufferPool::Stats& sa = a.db()->pool()->stats();
    const BufferPool::Stats& sb = b.db()->pool()->stats();
    EXPECT_EQ(sa.misses, sb.misses) << when;
    EXPECT_EQ(sa.disk_fetches, sb.disk_fetches) << when;
    EXPECT_EQ(sa.flash_fetches, sb.flash_fetches) << when;
    EXPECT_EQ(sa.evictions, sb.evictions) << when;
    EXPECT_EQ(sa.dirty_evictions, sb.dirty_evictions) << when;
    EXPECT_EQ(a.cache()->stats().enqueues, b.cache()->stats().enqueues)
        << when;
    EXPECT_EQ(face_queue(a), face_queue(b)) << when;
  };

  Clone per_row;
  Clone pinned;
  make_clone(&per_row);
  if (HasFatalFailure()) return;
  make_clone(&pinned);
  if (HasFatalFailure()) return;
  expect_same_pool(*per_row.tb, *pinned.tb, "after restart");

  {
    FACE_ASSERT_OK_AND_ASSIGN(workload::KvTable table,
                              workload::KvTable::Open(*per_row.tb->db()));
    std::string row;
    for (uint64_t key = 0; key < per_row.shadow->population(); ++key) {
      FACE_ASSERT_OK(table.Read(key, &row));
    }
    FACE_ASSERT_OK(table.CountFrom(0).status());
  }
  FACE_ASSERT_OK_AND_ASSIGN(
      fault::DiffReport diff,
      fault::RunDifferentialCheck(*pinned.tb->db(), pinned.shadow.get(),
                                  nullptr));
  EXPECT_TRUE(diff.ok()) << diff.ToString();
  const uint64_t misses_before = pinned.tb->db()->pool()->stats().misses;
  expect_same_pool(*per_row.tb, *pinned.tb, "after the sweeps");

  FACE_ASSERT_OK(per_row.tb->db()->pool()->EvictAll());
  FACE_ASSERT_OK(pinned.tb->db()->pool()->EvictAll());
  expect_same_pool(*per_row.tb, *pinned.tb, "after EvictAll");
  EXPECT_GT(misses_before, 0u);
}

// --- degraded-mode storms ---------------------------------------------------
// Flash loss mid-run, crash while degraded, crash during the WAL-driven
// flash rebuild, scrub repair, and online re-attach — every scenario ends
// with the row-for-row differential check proving zero lost committed rows.

/// A shadow-KV testbed rig for degraded-mode scenarios: one golden image,
/// one Testbed, and the shadow table the differential checker audits
/// against. Same shape as RecoveryFromFlashTest's setup, reusable per
/// policy.
class DegradedRig {
 public:
  void Build(CachePolicy policy, uint64_t seed, SimNanos scrub_interval = 0) {
    fault::ShadowKvOptions wo;
    // 3,000 rows of 160 B (over 100 heap pages plus the index) overflow the
    // 64 DRAM frames, so warmup already drives flash: 400 txns make ~220
    // evictions and, under FaCE, ~270 flash page I/Os.
    wo.records = 3000;
    wo.value_bytes = 160;
    shadow_ = std::make_shared<fault::ShadowState>();
    factory_ = std::make_shared<fault::ShadowKvFactory>(wo, shadow_);
    shadow_->Reset(wo.records, wo.value_bytes);
    FACE_ASSERT_OK_AND_ASSIGN(golden_, GoldenImage::BuildFor(factory_));

    TestbedOptions to;
    to.clients = 8;
    to.seed = seed;
    to.workload = factory_;
    to.buffer_frames = 64;  // small on purpose: evictions drive flash
    to.flash_pages = 512;
    to.seg_entries = 256;
    // GSC stages a whole group before it writes; at the default 64 the
    // staging arena would hold the entire spill and never reach the device.
    to.group_size = 8;
    to.policy = policy;
    to.scrub_interval = scrub_interval;
    tb_ = std::make_unique<Testbed>(to, &golden_);
    FACE_ASSERT_OK(tb_->Start());
  }

  Testbed& tb() { return *tb_; }

  /// Row-for-row differential check: the engine's logical table must be
  /// exactly the shadow's committed history.
  void CheckDiff(const char* what) {
    FACE_ASSERT_OK_AND_ASSIGN(
        fault::DiffReport diff,
        fault::RunDifferentialCheck(*tb_->db(), shadow_.get(), tb_->cache()));
    EXPECT_TRUE(diff.ok()) << what << "\n" << diff.ToString();
  }

 private:
  std::shared_ptr<fault::ShadowState> shadow_;
  std::shared_ptr<fault::ShadowKvFactory> factory_;
  GoldenImage golden_;
  std::unique_ptr<Testbed> tb_;
};

/// Everything the post-degradation world measured, as exact integers —
/// same-seed runs must reproduce this bit-for-bit.
using DegradedFingerprint = std::vector<uint64_t>;

DegradedFingerprint FingerprintOf(const RunResult& r, const Testbed& tb) {
  return DegradedFingerprint{r.txns,
                             r.degradations,
                             r.degraded_txns,
                             static_cast<uint64_t>(r.degraded_ns),
                             static_cast<uint64_t>(r.duration),
                             r.db_stats.total_pages(),
                             r.log_stats.total_pages(),
                             r.flash_stats.total_pages(),
                             r.flash_stats.retries,
                             static_cast<uint64_t>(r.flash_stats.backoff_ns),
                             tb.last_rebuild().target_pages,
                             tb.last_rebuild().pages_written,
                             tb.last_rebuild().records_applied};
}

/// One seeded flash-loss-mid-run scenario: a transient profile whose sticky
/// window outlasts the retry budget kills the flash device at its first
/// fault; the supervisor must transition to disk-only with zero lost rows.
void RunFlashLossScenario(CachePolicy policy, uint64_t seed,
                          DegradedFingerprint* fp) {
  DegradedRig rig;
  rig.Build(policy, seed);
  if (::testing::Test::HasFatalFailure()) return;
  Testbed& tb = rig.tb();
  RunOptions warm;
  warm.txns = 400;
  FACE_ASSERT_OK(tb.Run(warm).status());

  FaultInjector inj;
  tb.flash_dev()->set_fault_injector(&inj);
  TransientFaultProfile p;
  p.read_fail_permille = 25;
  p.write_fail_permille = 25;
  p.sticky_failures = 8;  // > the 4-attempt budget: the first fault is fatal
  p.seed = seed;
  inj.ArmTransient("flash", p);

  RunOptions body;
  body.txns = 500;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult res, tb.Run(body));
  ASSERT_TRUE(tb.IsDegraded())
      << CachePolicyName(policy) << ": no flash fault fired in 500 txns";
  EXPECT_EQ(res.degradations, 1u);
  EXPECT_GT(res.degraded_txns, 0u);
  EXPECT_GT(res.degraded_ns, 0);
  EXPECT_GT(res.flash_stats.retries, 0u);  // the budget was actually spent
  EXPECT_EQ(res.txns, body.txns);          // traffic kept flowing throughout

  rig.CheckDiff(CachePolicyName(policy));
  *fp = FingerprintOf(res, tb);

  // Disk-only service keeps working after the transition.
  RunOptions after;
  after.txns = 100;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult res2, tb.Run(after));
  EXPECT_EQ(res2.degraded_txns, res2.txns);
  EXPECT_EQ(res2.flash_stats.total_pages(), 0u);
  rig.CheckDiff("post-degradation service");
}

TEST(DegradedModeTest, FlashLossMidRunKeepsEveryCommittedRow) {
  const CachePolicy policies[] = {CachePolicy::kFace, CachePolicy::kFaceGSC,
                                  CachePolicy::kLc, CachePolicy::kTac,
                                  CachePolicy::kExadata};
  for (CachePolicy policy : policies) {
    SCOPED_TRACE(CachePolicyName(policy));
    // Same seed twice: the post-degradation fingerprint must reproduce
    // bit-for-bit (the acceptance bar for deterministic degradation).
    DegradedFingerprint first, second;
    RunFlashLossScenario(policy, 17, &first);
    if (::testing::Test::HasFatalFailure()) return;
    RunFlashLossScenario(policy, 17, &second);
    if (::testing::Test::HasFatalFailure()) return;
    EXPECT_EQ(first, second) << "same-seed degradation diverged";
  }
}

TEST(DegradedModeTest, CrashWhileDegradedRecoversDiskOnly) {
  const CachePolicy policies[] = {CachePolicy::kFace, CachePolicy::kFaceGSC,
                                  CachePolicy::kLc, CachePolicy::kTac,
                                  CachePolicy::kExadata};
  for (CachePolicy policy : policies) {
    SCOPED_TRACE(CachePolicyName(policy));
    DegradedRig rig;
    rig.Build(policy, 77);
    if (::testing::Test::HasFatalFailure()) return;
    Testbed& tb = rig.tb();
    RunOptions warm;
    warm.txns = 300;
    FACE_ASSERT_OK(tb.Run(warm).status());

    FaultInjector inj;
    tb.flash_dev()->set_fault_injector(&inj);
    inj.KillDevice("flash");
    RunOptions body;
    body.txns = 200;
    FACE_ASSERT_OK(tb.Run(body).status());
    ASSERT_TRUE(tb.IsDegraded());

    // Serve disk-only for a while, then power-fail with work in flight.
    RunOptions degraded_run;
    degraded_run.txns = 150;
    FACE_ASSERT_OK(tb.Run(degraded_run).status());
    FACE_ASSERT_OK(tb.InjectInflightTransactions(2));
    FACE_ASSERT_OK(tb.Crash());
    RestartReport report;
    FACE_ASSERT_OK_AND_ASSIGN(report, tb.Recover());
    EXPECT_TRUE(report.degraded)
        << "control block lost the degraded marker\n" << report.ToString();
    EXPECT_TRUE(tb.IsDegraded());
    rig.CheckDiff("crash while degraded");

    // Survivability: the restarted disk-only engine still serves traffic.
    RunOptions after;
    after.txns = 100;
    FACE_ASSERT_OK_AND_ASSIGN(RunResult res, tb.Run(after));
    EXPECT_EQ(res.degraded_txns, res.txns);
    rig.CheckDiff("post-restart degraded service");
  }
}

TEST(DegradedModeTest, CrashDuringFlashRebuildRecoversFromTheFloor) {
  // Power fails between the durable degraded-marker write and the
  // WAL-driven rebuild: restart must come up disk-only and redo from the
  // persisted rebuild floor, reconstructing every page whose only current
  // copy died with the flash device.
  DegradedRig rig;
  rig.Build(CachePolicy::kFace, 91);
  if (::testing::Test::HasFatalFailure()) return;
  Testbed& tb = rig.tb();
  RunOptions warm;
  warm.txns = 400;
  FACE_ASSERT_OK(tb.Run(warm).status());

  tb.set_mid_degrade_hook(
      [] { return Status::IOError("simulated power loss during rebuild"); });
  FaultInjector inj;
  tb.flash_dev()->set_fault_injector(&inj);
  inj.KillDevice("flash");
  RunOptions body;
  body.txns = 300;
  const auto res = tb.Run(body);
  ASSERT_FALSE(res.ok()) << "the mid-degrade hook never fired";
  tb.set_mid_degrade_hook(nullptr);

  FACE_ASSERT_OK(tb.Crash());
  RestartReport report;
  FACE_ASSERT_OK_AND_ASSIGN(report, tb.Recover());
  EXPECT_TRUE(report.degraded) << report.ToString();
  EXPECT_GT(report.redo_applied, 0u)
      << "nothing was replayed — the rebuild floor did not widen redo";
  rig.CheckDiff("crash during flash rebuild");

  RunOptions after;
  after.txns = 100;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult after_res, tb.Run(after));
  EXPECT_EQ(after_res.degraded_txns, after_res.txns);
  rig.CheckDiff("post-rebuild-crash service");
}

TEST(DegradedModeTest, ScrubRepairsBitRotThenSurvivesACrash) {
  // Silent bit-rot on idle flash frames; one scrub pass must find and fix
  // every rotten frame (clean frames re-read from disk, dirty frames
  // rebuilt from the WAL) before any of it is served, and a crash after
  // the repairs must still recover the exact committed history.
  const CachePolicy policies[] = {CachePolicy::kFace, CachePolicy::kFaceGSC,
                                  CachePolicy::kLc, CachePolicy::kTac,
                                  CachePolicy::kExadata};
  for (CachePolicy policy : policies) {
    SCOPED_TRACE(CachePolicyName(policy));
    DegradedRig rig;
    rig.Build(policy, 55);
    if (::testing::Test::HasFatalFailure()) return;
    Testbed& tb = rig.tb();
    RunOptions warm;
    warm.txns = 500;
    FACE_ASSERT_OK(tb.Run(warm).status());

    // Rot every third frame block (same geometry the testbed provisioned):
    // FaCE's frames (every flavor) sit past its metadata regions, TAC's
    // past its slot directory, LC's and Exadata's start at block 0.
    constexpr uint64_t kFrames = 512;
    const FlashLayout lay = FlashLayout::Compute(kFrames, 256);
    for (uint64_t i = 0; i < kFrames; i += 3) {
      uint64_t block = i;
      if (policy == CachePolicy::kFace || policy == CachePolicy::kFaceGSC) {
        block = lay.FrameBlock(i);
      }
      if (policy == CachePolicy::kTac) {
        block = TacCache::DirBlocksFor(kFrames) + i;
      }
      FACE_ASSERT_OK(FaultInjector::FlipBitsInBlock(
          tb.flash_dev(), block, /*n_bits=*/3, /*seed=*/1000 + i));
    }

    ScrubResult scrub;
    FACE_ASSERT_OK_AND_ASSIGN(scrub, tb.ScrubPass(kFrames));
    EXPECT_GT(scrub.frames_scanned, 0u);
    EXPECT_GT(scrub.clean_repaired + scrub.lost_dirty.size(), 0u)
        << "no rot found: the flips missed every occupied frame";
    EXPECT_FALSE(tb.IsDegraded());

    // The repaired cache serves clean traffic...
    RunOptions body;
    body.txns = 200;
    FACE_ASSERT_OK(tb.Run(body).status());
    rig.CheckDiff("scrub repair");

    // ...and a crash after the repairs recovers row-for-row.
    FACE_ASSERT_OK(tb.InjectInflightTransactions(2));
    FACE_ASSERT_OK(tb.Crash());
    RestartReport report;
    FACE_ASSERT_OK_AND_ASSIGN(report, tb.Recover());
    EXPECT_FALSE(report.degraded);
    rig.CheckDiff("scrub-repair-then-crash");
  }
}

TEST(DegradedModeTest, BackgroundScrubberWalksIdleFramesInVirtualTime) {
  // With a scrub interval set, Run() schedules passes on the virtual clock;
  // on healthy media they scan frames and repair nothing — and they must
  // not disturb the workload's correctness.
  DegradedRig rig;
  rig.Build(CachePolicy::kFace, 21, /*scrub_interval=*/5 * kNanosPerMilli);
  if (::testing::Test::HasFatalFailure()) return;
  Testbed& tb = rig.tb();
  RunOptions warm;
  warm.txns = 300;
  FACE_ASSERT_OK(tb.Run(warm).status());

  RunOptions body;
  body.txns = 500;
  FACE_ASSERT_OK_AND_ASSIGN(RunResult res, tb.Run(body));
  EXPECT_GT(res.scrub_frames_scanned, 0u) << "the scrubber never ran";
  EXPECT_EQ(res.scrub_clean_repaired, 0u);
  EXPECT_EQ(res.scrub_lost_dirty, 0u);
  rig.CheckDiff("background scrub");
}

TEST(DegradedModeTest, ReattachedFlashRewarmsThroughNormalAdmission) {
  const CachePolicy policies[] = {CachePolicy::kFace, CachePolicy::kFaceGSC,
                                  CachePolicy::kLc, CachePolicy::kTac,
                                  CachePolicy::kExadata};
  for (CachePolicy policy : policies) {
    SCOPED_TRACE(CachePolicyName(policy));
    DegradedRig rig;
    rig.Build(policy, 33);
    if (::testing::Test::HasFatalFailure()) return;
    Testbed& tb = rig.tb();
    RunOptions warm;
    warm.txns = 300;
    FACE_ASSERT_OK(tb.Run(warm).status());

    FaultInjector inj;
    tb.flash_dev()->set_fault_injector(&inj);
    inj.KillDevice("flash");
    RunOptions body;
    body.txns = 200;
    FACE_ASSERT_OK(tb.Run(body).status());
    ASSERT_TRUE(tb.IsDegraded());

    // Replace the media: disarm first (the caller's contract), then re-attach.
    inj.DisarmDevice("flash");
    FACE_ASSERT_OK(tb.ReattachFlash());
    EXPECT_FALSE(tb.IsDegraded());

    RunOptions rewarm;
    rewarm.txns = 300;
    FACE_ASSERT_OK_AND_ASSIGN(RunResult res, tb.Run(rewarm));
    EXPECT_EQ(res.degraded_txns, 0u);
    EXPECT_GT(res.flash_stats.pages_written, 0u)
        << "nothing was admitted — the cache never re-warmed";
    rig.CheckDiff("re-attached flash");

    // The cleared degraded marker is durable: a crash after re-attach must
    // restart with the cache trusted again.
    FACE_ASSERT_OK(tb.Crash());
    RestartReport report;
    FACE_ASSERT_OK_AND_ASSIGN(report, tb.Recover());
    EXPECT_FALSE(report.degraded) << report.ToString();
    rig.CheckDiff("crash after re-attach");
  }
}

TEST(DegradedModeTest, ShardedStormFaultsOneShardOnly) {
  // Per-device injector scoping: arming one shard's flash degrades that
  // shard and leaves every other shard's cache untouched — no global
  // disarm, no cross-shard perturbation.
  workload::YcsbOptions yo;
  yo.records = 12000;  // 6000 per shard: overflows DRAM, drives flash
  yo.value_bytes = 120;
  ShardedTestbedOptions so;
  so.shards = 2;
  so.base.clients = 8;
  so.base.seed = 42;
  so.base.policy = CachePolicy::kFace;
  so.base.buffer_frames = 64;
  so.factory = std::make_shared<workload::YcsbFactory>(yo);
  so.flash_ratio = 0.1;

  FaultInjector inj;  // outlives the testbed; used only on shard 0's worker
  ShardedTestbed st(so);
  FACE_ASSERT_OK(st.Start());
  FACE_ASSERT_OK(st.Warmup(300));

  FACE_ASSERT_OK(st.OnShard(0, [&inj](Testbed& shard_tb) {
    shard_tb.flash_dev()->set_fault_injector(&inj);
    TransientFaultProfile p;
    p.write_fail_permille = 1000;
    p.sticky_failures = 8;
    p.seed = 9;
    inj.ArmTransient("flash", p);
    return Status::OK();
  }));

  RunOptions run;
  run.txns = 300;
  std::vector<RunResult> per_shard;
  FACE_ASSERT_OK(st.Run(run, &per_shard).status());

  ASSERT_EQ(per_shard.size(), 2u);
  EXPECT_EQ(per_shard[0].degradations, 1u);
  EXPECT_TRUE(st.testbed(0)->IsDegraded());
  EXPECT_GT(per_shard[0].flash_stats.retries, 0u);

  EXPECT_EQ(per_shard[1].degradations, 0u);
  EXPECT_FALSE(st.testbed(1)->IsDegraded());
  EXPECT_EQ(per_shard[1].flash_stats.retries, 0u);
  EXPECT_EQ(inj.transient_failures_on("db"), 0u);
  EXPECT_GT(per_shard[1].cache_stats.hits, 0u)
      << "the healthy shard's cache stopped serving";
}

}  // namespace
}  // namespace face
