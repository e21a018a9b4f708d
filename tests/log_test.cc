// Unit tests: WAL record codec, LogManager append/force/attach, LogReader
// scanning, torn-tail detection, control block, truncation.
#include <gtest/gtest.h>

#include <string>

#include "sim/sim_device.h"
#include "tests/test_util.h"
#include "wal/log_manager.h"
#include "wal/log_record.h"

namespace face {
namespace {

LogRecord MakeUpdate(TxnId txn, PageId page, uint16_t offset,
                     const std::string& before, const std::string& after) {
  LogRecord rec;
  rec.type = LogRecordType::kUpdate;
  rec.txn_id = txn;
  rec.page_id = page;
  rec.offset = offset;
  rec.before = before;
  rec.after = after;
  return rec;
}

TEST(LogRecordTest, EncodeDecodeAllTypes) {
  LogRecord update = MakeUpdate(7, 42, 100, "old", "new!");
  update.lsn = 4096;
  update.prev_lsn = 2048;
  const std::string bytes = update.Encode();
  EXPECT_EQ(bytes.size(), update.EncodedSize());
  FACE_ASSERT_OK_AND_ASSIGN(
      LogRecord decoded,
      LogRecord::Decode(bytes.data(), static_cast<uint32_t>(bytes.size())));
  EXPECT_EQ(decoded.type, LogRecordType::kUpdate);
  EXPECT_EQ(decoded.txn_id, 7u);
  EXPECT_EQ(decoded.page_id, 42u);
  EXPECT_EQ(decoded.offset, 100);
  EXPECT_EQ(decoded.before, "old");
  EXPECT_EQ(decoded.after, "new!");
  EXPECT_EQ(decoded.prev_lsn, 2048u);

  LogRecord ckpt;
  ckpt.type = LogRecordType::kCheckpointBegin;
  ckpt.lsn = 8192;
  ckpt.next_page_id = 500;
  ckpt.dirty_pages = {{1, 100}, {2, 200}};
  ckpt.active_txns = {{9, 300}};
  const std::string cbytes = ckpt.Encode();
  // Pinned wire format: ATT entries keep a reserved third word, so an entry
  // is 24 bytes. Shrinking it changes every checkpoint's byte stream, and
  // with it the timing-guard log fingerprints.
  EXPECT_EQ(cbytes.size(), kLogRecordHeaderSize + 16 + 2 * 16 + 24);
  FACE_ASSERT_OK_AND_ASSIGN(
      LogRecord cdec,
      LogRecord::Decode(cbytes.data(), static_cast<uint32_t>(cbytes.size())));
  EXPECT_EQ(cdec.next_page_id, 500u);
  ASSERT_EQ(cdec.dirty_pages.size(), 2u);
  EXPECT_EQ(cdec.dirty_pages[1].page_id, 2u);
  EXPECT_EQ(cdec.dirty_pages[1].rec_lsn, 200u);
  ASSERT_EQ(cdec.active_txns.size(), 1u);
  EXPECT_EQ(cdec.active_txns[0].txn_id, 9u);
  EXPECT_EQ(cdec.active_txns[0].last_lsn, 300u);
  EXPECT_EQ(cdec.Encode(), cbytes);

  LogRecord clr;
  clr.type = LogRecordType::kClr;
  clr.lsn = 1;
  clr.txn_id = 3;
  clr.page_id = 8;
  clr.offset = 16;
  clr.after = "comp";
  clr.undo_next_lsn = 77;
  const std::string lbytes = clr.Encode();
  FACE_ASSERT_OK_AND_ASSIGN(
      LogRecord ldec,
      LogRecord::Decode(lbytes.data(), static_cast<uint32_t>(lbytes.size())));
  EXPECT_EQ(ldec.undo_next_lsn, 77u);
  EXPECT_EQ(ldec.after, "comp");
}

TEST(LogRecordTest, DecodeRejectsRetiredRecordTypes) {
  // Types 8 and 9 are no longer part of the format; a record carrying one
  // must not decode, however well-formed its framing is.
  for (const int type : {8, 9}) {
    std::string bytes(ControlRecordSize(), '\0');
    EncodeControlRecordTo(bytes.data(), static_cast<LogRecordType>(type),
                          4096, 1, kInvalidLsn);
    const Status s =
        LogRecord::Decode(bytes.data(), static_cast<uint32_t>(bytes.size()))
            .status();
    EXPECT_TRUE(s.IsCorruption()) << "type " << type;
    EXPECT_EQ(s.message(), "unknown log record type") << "type " << type;
  }
}

TEST(LogRecordTest, DecodeRejectsCorruption) {
  LogRecord rec = MakeUpdate(1, 2, 3, "b", "a");
  rec.lsn = 4096;
  std::string bytes = rec.Encode();
  bytes[bytes.size() - 1] ^= 1;
  EXPECT_TRUE(LogRecord::Decode(bytes.data(),
                                static_cast<uint32_t>(bytes.size()))
                  .status()
                  .IsCorruption());
}

class LogManagerTest : public ::testing::Test {
 protected:
  LogManagerTest()
      : dev_("log", DeviceProfile::Seagate15k(), 1 << 16), log_(&dev_) {
    EXPECT_TRUE(log_.Format().ok());
  }
  SimDevice dev_;
  LogManager log_;
};

TEST_F(LogManagerTest, AppendAssignsMonotonicLsns) {
  LogRecord a = MakeUpdate(1, 1, 0, "x", "y");
  LogRecord b = MakeUpdate(1, 2, 0, "x", "y");
  const Lsn la = log_.Append(&a);
  const Lsn lb = log_.Append(&b);
  EXPECT_EQ(la, LogManager::kLogStartLsn);
  EXPECT_EQ(lb, la + a.EncodedSize());
  EXPECT_EQ(log_.next_lsn(), lb + b.EncodedSize());
}

TEST_F(LogManagerTest, NothingDurableUntilFlush) {
  LogRecord a = MakeUpdate(1, 1, 0, "x", "y");
  const Lsn la = log_.Append(&a);
  EXPECT_EQ(log_.durable_lsn(), LogManager::kLogStartLsn);
  FACE_ASSERT_OK(log_.FlushTo(la));
  EXPECT_GT(log_.durable_lsn(), la);
}

TEST_F(LogManagerTest, FlushWithNoNewAppendsWritesNothing) {
  // Regression: the early-out used to test `next_lsn_ == buffer_base_`, so
  // a flush with no new appends but a retained partial tail block rewrote
  // that already-durable block on every call.
  LogRecord a = MakeUpdate(1, 1, 0, "x", "y");  // not block-aligned
  log_.Append(&a);
  const uint64_t writes_before = dev_.stats().write_reqs;
  FACE_ASSERT_OK(log_.FlushAll());
  EXPECT_EQ(dev_.stats().write_reqs, writes_before + 1);

  // Back-to-back forces with nothing new: exactly zero further device
  // writes, whatever LSN the caller asks for.
  FACE_ASSERT_OK(log_.FlushAll());
  FACE_ASSERT_OK(log_.FlushTo(log_.durable_lsn()));
  FACE_ASSERT_OK(log_.FlushTo(log_.next_lsn()));
  EXPECT_EQ(dev_.stats().write_reqs, writes_before + 1);
  EXPECT_EQ(log_.stats().flushes, 1u);

  // The next real append still lands in the retained partial block.
  LogRecord b = MakeUpdate(1, 2, 0, "x", "y");
  const Lsn lb = log_.Append(&b);
  FACE_ASSERT_OK(log_.FlushTo(lb));
  EXPECT_EQ(dev_.stats().write_reqs, writes_before + 2);
  EXPECT_EQ(log_.durable_lsn(), log_.next_lsn());
}

TEST_F(LogManagerTest, ReaderScansExactlyWhatWasAppended) {
  std::vector<Lsn> lsns;
  for (int i = 0; i < 100; ++i) {
    LogRecord rec = MakeUpdate(1, static_cast<PageId>(i), 0, "aa", "bb");
    lsns.push_back(log_.Append(&rec));
  }
  FACE_ASSERT_OK(log_.FlushAll());

  LogReader reader(&dev_);
  FACE_ASSERT_OK(reader.Seek(LogManager::kLogStartLsn));
  for (int i = 0; i < 100; ++i) {
    FACE_ASSERT_OK_AND_ASSIGN(LogRecord rec, reader.Next());
    EXPECT_EQ(rec.lsn, lsns[i]);
    EXPECT_EQ(rec.page_id, static_cast<PageId>(i));
  }
  EXPECT_TRUE(reader.Next().status().IsNotFound());  // clean end of log
}

TEST_F(LogManagerTest, AttachFindsEndOfLogAfterRestart) {
  LogRecord a = MakeUpdate(1, 1, 0, "x", "yy");
  LogRecord b = MakeUpdate(1, 2, 0, "x", "zz");
  log_.Append(&a);
  const Lsn lb = log_.Append(&b);
  FACE_ASSERT_OK(log_.FlushAll());
  const Lsn end = log_.next_lsn();

  LogManager fresh(&dev_);
  FACE_ASSERT_OK(fresh.Attach());
  EXPECT_EQ(fresh.next_lsn(), end);
  EXPECT_EQ(fresh.durable_lsn(), end);

  // New appends continue the stream and old records stay readable.
  LogRecord c = MakeUpdate(2, 3, 0, "x", "w");
  const Lsn lc = fresh.Append(&c);
  EXPECT_EQ(lc, end);
  FACE_ASSERT_OK(fresh.FlushAll());
  LogReader reader(&dev_);
  FACE_ASSERT_OK(reader.Seek(lb));
  FACE_ASSERT_OK_AND_ASSIGN(LogRecord rb, reader.Next());
  EXPECT_EQ(rb.page_id, 2u);
  FACE_ASSERT_OK_AND_ASSIGN(LogRecord rc, reader.Next());
  EXPECT_EQ(rc.page_id, 3u);
}

TEST_F(LogManagerTest, UnflushedTailDiesWithACrash) {
  LogRecord a = MakeUpdate(1, 1, 0, "x", "durable");
  const Lsn la = log_.Append(&a);
  FACE_ASSERT_OK(log_.FlushTo(la));
  LogRecord b = MakeUpdate(1, 2, 0, "x", "volatile");
  log_.Append(&b);
  // No flush: a crash (new manager over the same device) must not see b.
  LogManager fresh(&dev_);
  FACE_ASSERT_OK(fresh.Attach());
  LogReader reader(&dev_);
  FACE_ASSERT_OK(reader.Seek(la));
  FACE_ASSERT_OK_AND_ASSIGN(LogRecord ra, reader.Next());
  EXPECT_EQ(ra.after, "durable");
  EXPECT_TRUE(reader.Next().status().IsNotFound());
}

TEST_F(LogManagerTest, ControlBlockRoundTrip) {
  FACE_ASSERT_OK_AND_ASSIGN(Lsn none, log_.ReadControlBlock());
  EXPECT_EQ(none, kInvalidLsn);
  FACE_ASSERT_OK(log_.WriteControlBlock(777777));
  FACE_ASSERT_OK_AND_ASSIGN(Lsn got, log_.ReadControlBlock());
  EXPECT_EQ(got, 777777u);
}

TEST_F(LogManagerTest, TruncateKeepsControlBlockAndTail) {
  // Fill several chunks of log, then truncate before the end.
  LogRecord rec = MakeUpdate(1, 1, 0, std::string(400, 'b'),
                             std::string(400, 'a'));
  Lsn last = 0;
  while (log_.next_lsn() < 3000 * kPageSize) last = log_.Append(&rec);
  FACE_ASSERT_OK(log_.FlushAll());
  log_.TruncateBefore(last);

  FACE_ASSERT_OK(log_.ReadControlBlock().status());  // control survives
  LogReader reader(&dev_);
  FACE_ASSERT_OK(reader.Seek(last));
  FACE_ASSERT_OK_AND_ASSIGN(LogRecord got, reader.Next());
  EXPECT_EQ(got.lsn, last);
}

TEST_F(LogManagerTest, GroupCommitFlushesCoBufferedRecords) {
  LogRecord a = MakeUpdate(1, 1, 0, "x", "y");
  LogRecord b = MakeUpdate(2, 2, 0, "x", "y");
  const Lsn la = log_.Append(&a);
  log_.Append(&b);
  const uint64_t flushes_before = log_.stats().flushes;
  FACE_ASSERT_OK(log_.FlushTo(la));  // forcing a also forces b
  EXPECT_EQ(log_.stats().flushes, flushes_before + 1);
  EXPECT_EQ(log_.durable_lsn(), log_.next_lsn());
  FACE_ASSERT_OK(log_.FlushTo(la));  // no-op: already durable
  EXPECT_EQ(log_.stats().flushes, flushes_before + 1);
}

}  // namespace
}  // namespace face
