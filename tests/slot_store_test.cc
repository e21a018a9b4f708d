// Unit tests: the fixed-frame slot store under LC, TAC and Exadata — slot
// allocation order, the index / reverse-map bijection, the rotating scrub
// walk, and the restart sweep.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/slot_store.h"
#include "fault/fault_injector.h"
#include "tests/test_util.h"

namespace face {
namespace {

class SlotStoreTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kFrames = 8;
  static constexpr uint64_t kBase = 3;  // frames start past a directory
  static constexpr PageId kFirstPage = 100;

  void SetUp() override {
    db_dev_ = std::make_unique<SimDevice>("db", DeviceProfile::Raid0Seagate(8),
                                          1 << 12);
    storage_ = std::make_unique<DbStorage>(db_dev_.get());
    flash_ = std::make_unique<SimDevice>(
        "flash", DeviceProfile::MlcSamsung470(),
        SlotStore::DeviceBlocksFor(kBase, kFrames));
    store_ = std::make_unique<SlotStore>(kFrames, kBase, flash_.get(),
                                         storage_.get(), &stats_);
    FACE_ASSERT_OK(store_->Format());
  }

  std::string MakePage(PageId page_id) {
    std::string page(kPageSize, '\0');
    PageView v(page.data());
    v.Format(page_id);
    v.set_lsn(10);
    memset(v.payload(), static_cast<char>('a' + page_id % 26), 32);
    v.StampChecksum();
    return page;
  }

  /// Fill every slot (page kFirstPage + i lands in slot i, its disk copy
  /// identical), then free slots 2 and 5.
  void FillWithHoles() {
    for (uint64_t i = 0; i < kFrames; ++i) {
      const PageId pid = kFirstPage + i;
      std::string page = MakePage(pid);
      FACE_ASSERT_OK(storage_->WritePage(pid, page.data()));
      FACE_ASSERT_OK_AND_ASSIGN(uint32_t slot,
                                store_->Admit(pid, page.data()));
      ASSERT_EQ(slot, i) << "allocation must start at slot 0 and ascend";
    }
    store_->Release(2);
    store_->Release(5);
    FACE_ASSERT_OK(store_->CheckInvariants());
  }

  /// Rot every occupied frame, run one scrub call and return the slots it
  /// verified, in visit order (every visited frame is rotten, so each one
  /// reaches the dirty hook before its clean repair).
  std::vector<uint32_t> ScrubOrder(uint64_t max_frames) {
    store_->ForEachPage([&](uint32_t slot, PageId) {
      EXPECT_TRUE(FaultInjector::FlipBitsInBlock(flash_.get(), kBase + slot,
                                                 /*n_bits=*/3, ++rot_seed_)
                      .ok());
    });
    std::vector<uint32_t> order;
    ScrubResult res;
    EXPECT_TRUE(store_
                    ->Scrub(max_frames, &res,
                            [&order](uint32_t slot) {
                              order.push_back(slot);
                              return false;
                            })
                    .ok());
    EXPECT_EQ(res.frames_scanned, order.size());
    EXPECT_EQ(res.clean_repaired, order.size());
    return order;
  }

  uint64_t rot_seed_ = 0;  ///< fresh bits per rot (a repeat would undo it)
  CacheStats stats_;
  std::unique_ptr<SimDevice> db_dev_, flash_;
  std::unique_ptr<DbStorage> storage_;
  std::unique_ptr<SlotStore> store_;
};

TEST_F(SlotStoreTest, ScrubWalksAscendingFromTheCursorAndWraps) {
  FillWithHoles();
  if (HasFatalFailure()) return;
  using Order = std::vector<uint32_t>;
  // Ascending slot order, skipping free slots 2 and 5.
  EXPECT_EQ(ScrubOrder(3), (Order{0, 1, 3}));
  // Resumes just past the last verified frame and wraps past the end.
  EXPECT_EQ(ScrubOrder(4), (Order{4, 6, 7, 0}));
  // A budget above the occupancy visits every occupied slot exactly once.
  EXPECT_EQ(ScrubOrder(100), (Order{1, 3, 4, 6, 7, 0}));
  // After a full lap the cursor still rests past the last verified frame.
  EXPECT_EQ(ScrubOrder(2), (Order{1, 3}));

  // The frames rotted but not reached by the last call are still rotten;
  // the next full pass repairs them, and every frame then validates and
  // serves its disk image again.
  ScrubResult res;
  FACE_ASSERT_OK(store_->Scrub(kFrames, &res));
  EXPECT_EQ(res.clean_repaired, 4u);
  std::string out(kPageSize, '\0');
  store_->ForEachPage([&](uint32_t slot, PageId pid) {
    auto version = store_->ReadFrame(slot, out.data());
    ASSERT_TRUE(version.ok()) << "slot " << slot;
    EXPECT_EQ(out[kPageHeaderSize], static_cast<char>('a' + pid % 26));
  });
  FACE_EXPECT_OK(store_->CheckInvariants());
}

TEST_F(SlotStoreTest, RestartSweepKeepsTheScrubRotationAndFormatResetsIt) {
  FillWithHoles();
  if (HasFatalFailure()) return;
  using Order = std::vector<uint32_t>;
  ScrubResult res;  // every frame is sound: verifies slots 0, 1 and 3
  FACE_ASSERT_OK(store_->Scrub(3, &res));
  EXPECT_EQ(res.frames_scanned, 3u);
  // A persistent owner's restart re-maps every claimed frame in place and
  // resumes the rotation where it stopped.
  std::vector<PageId> claimed(kFrames);
  for (uint32_t s = 0; s < kFrames; ++s) claimed[s] = store_->PageAt(s);
  auto fail = [](uint32_t) { return Status::Internal("unexpected drop"); };
  FACE_ASSERT_OK(store_->Rebuild(
      [&claimed](uint32_t slot) { return claimed[slot]; }, fail, fail));
  EXPECT_EQ(store_->size(), kFrames - 2);
  FACE_EXPECT_OK(store_->CheckInvariants());
  EXPECT_EQ(ScrubOrder(2), (Order{4, 6}));
  // A cold start (and degradation) restarts the rotation at slot 0.
  FACE_ASSERT_OK(store_->Format());
  FillWithHoles();
  if (HasFatalFailure()) return;
  EXPECT_EQ(ScrubOrder(1), (Order{0}));
}

TEST_F(SlotStoreTest, DirtyRotIsHandedBackToTheOwner) {
  FillWithHoles();
  if (HasFatalFailure()) return;
  FACE_ASSERT_OK(FaultInjector::FlipBitsInBlock(flash_.get(), kBase + 3,
                                                /*n_bits=*/3, /*seed=*/1));
  FACE_ASSERT_OK(FaultInjector::FlipBitsInBlock(flash_.get(), kBase + 6,
                                                /*n_bits=*/3, /*seed=*/2));
  ScrubResult res;
  // The owner holds slot 3's only current copy: it drops the page itself.
  FACE_ASSERT_OK(store_->Scrub(kFrames, &res, [this](uint32_t slot) {
    if (slot != 3) return false;
    store_->Release(slot);
    return true;
  }));
  EXPECT_EQ(res.frames_scanned, 6u);
  EXPECT_EQ(res.clean_repaired, 1u);  // slot 6, from disk
  EXPECT_FALSE(store_->Contains(kFirstPage + 3));
  EXPECT_EQ(store_->PageAt(3), kInvalidPageId);
  EXPECT_EQ(store_->size(), 5u);
  FACE_EXPECT_OK(store_->CheckInvariants());

  // The freed slots are reused last-freed first.
  std::string page = MakePage(kFirstPage + 20);
  FACE_ASSERT_OK_AND_ASSIGN(uint32_t slot,
                            store_->Admit(kFirstPage + 20, page.data()));
  EXPECT_EQ(slot, 3u);
  FACE_EXPECT_OK(store_->CheckInvariants());
}

}  // namespace
}  // namespace face
