#include "workload/ycsb_workload.h"

namespace face {
namespace workload {

namespace {

// FNV-1a style scramble: spreads the Zipfian head across the key space so
// hot keys land on distinct pages (standard YCSB "scrambled zipfian" —
// without it the whole hot set shares a handful of heap pages and the DRAM
// pool hides the flash tier entirely).
uint64_t Scramble(uint64_t v) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < 8; ++i) {
    h ^= v & 0xff;
    h *= 0x100000001b3ull;
    v >>= 8;
  }
  return h;
}

const char* DistributionName(YcsbOptions::Distribution distribution) {
  switch (distribution) {
    case YcsbOptions::Distribution::kUniform: return "ycsb-uniform";
    case YcsbOptions::Distribution::kZipfian: return "ycsb-zipfian";
    case YcsbOptions::Distribution::kLatest: return "ycsb-latest";
  }
  return "ycsb";
}

}  // namespace

YcsbWorkload::YcsbWorkload(const YcsbOptions& options) : opts_(options) {}

const char* YcsbWorkload::name() const {
  return DistributionName(opts_.distribution);
}

const char* YcsbWorkload::txn_type_name(uint8_t type) const {
  switch (type) {
    case kRead: return "Read";
    case kUpdate: return "Update";
    case kInsert: return "Insert";
    case kScan: return "Scan";
  }
  return "?";
}

Status YcsbWorkload::Setup(Database& db, uint64_t seed) {
  FACE_ASSIGN_OR_RETURN(table_, KvTable::Open(db));
  // The Zipfian rank table is over the initially loaded population; inserts
  // extend the key space but not the hot set (standard YCSB behavior).
  zipf_ = std::make_unique<ZipfGenerator>(opts_.records, opts_.zipf_theta,
                                          seed ^ 0x5ca1ab1e);
  // Recover the insert high-water mark: inserted keys are exactly the index
  // tail at ids >= records, so a post-crash Setup resumes without clashing.
  FACE_ASSIGN_OR_RETURN(inserted_, table_.CountFrom(opts_.records));
  version_ = seed << 20;  // fresh payload versions per incarnation
  return Status::OK();
}

uint64_t YcsbWorkload::ChooseKey(Random& rnd) {
  const uint64_t population = opts_.records + inserted_;
  switch (opts_.distribution) {
    case YcsbOptions::Distribution::kUniform:
      return rnd.Uniform(population);
    case YcsbOptions::Distribution::kZipfian:
      return Scramble(zipf_->Next()) % opts_.records;
    case YcsbOptions::Distribution::kLatest:
      // Hottest key = most recently inserted, decaying Zipf-fast backwards.
      return population - 1 - zipf_->Next();
  }
  return 0;
}

StatusOr<uint8_t> YcsbWorkload::NextTxn(Database& db, Random& rnd) {
  const int roll = static_cast<int>(rnd.Uniform(100));
  uint8_t type;
  Status s;
  const TxnId txn = db.Begin();
  if (roll < opts_.pct_read) {
    type = kRead;
    std::string row;
    s = table_.Read(ChooseKey(rnd), &row);
    if (s.ok()) ++stats_.rows_read;
  } else if (roll < opts_.pct_read + opts_.pct_update) {
    type = kUpdate;
    PageWriter w = db.Writer(txn);
    const uint64_t key = ChooseKey(rnd);
    s = table_.Update(&w, key, opts_.value_bytes, ++version_);
    if (s.ok()) ++stats_.rows_written;
  } else if (roll < opts_.pct_read + opts_.pct_update + opts_.pct_insert) {
    type = kInsert;
    PageWriter w = db.Writer(txn);
    const uint64_t key = opts_.records + inserted_;
    s = table_.Insert(&w, key, opts_.value_bytes, ++version_);
    if (s.ok()) {
      ++inserted_;
      ++stats_.rows_written;
    }
  } else {
    type = kScan;
    const uint64_t rows = 1 + rnd.Uniform(opts_.max_scan_rows);
    const StatusOr<uint64_t> read = table_.Scan(ChooseKey(rnd), rows);
    s = read.status();
    if (read.ok()) stats_.rows_read += *read;
  }
  if (!s.ok()) {
    FACE_RETURN_IF_ERROR(db.Abort(txn));
    return s;
  }
  FACE_RETURN_IF_ERROR(db.Commit(txn));
  RecordCompleted(type, /*primary=*/true);
  return type;
}

Status YcsbWorkload::InjectStranded(Database& db, Random& rnd) {
  // An update applied but never committed — the in-flight work a crash
  // strands (recovery must undo it).
  const TxnId txn = db.Begin();
  PageWriter w = db.Writer(txn);
  return table_.Update(&w, rnd.Uniform(opts_.records), opts_.value_bytes,
                       ++version_);
}

// --- factory -----------------------------------------------------------------

const char* YcsbFactory::name() const {
  return DistributionName(opts_.distribution);
}

uint64_t YcsbFactory::CapacityPages() const {
  // Heap rows pack ~kPageSize/2 usable bytes per page at worst; the index
  // adds ~24 bytes per entry. Triple for insert growth plus fixed slack.
  const uint64_t row_bytes = 8 + opts_.value_bytes + 8;
  const uint64_t heap_pages = opts_.records * row_bytes / (kPageSize / 2) + 64;
  const uint64_t index_pages = opts_.records / 64 + 64;
  return (heap_pages + index_pages) * 3 + 8192;
}

Status YcsbFactory::Load(Database& db, uint64_t seed) const {
  (void)seed;  // the load image is deterministic in (records, value_bytes)
  PageWriter bulk = db.BulkWriter();
  FACE_ASSIGN_OR_RETURN(KvTable table, KvTable::Create(db, &bulk));
  FACE_RETURN_IF_ERROR(table.Populate(&bulk, opts_.records, opts_.value_bytes,
                                      opts_.bulk_load));
  // Flush + checkpoint: the on-media image is self-contained from here.
  return db.CleanShutdown();
}

std::unique_ptr<Workload> YcsbFactory::Create() const {
  return std::make_unique<YcsbWorkload>(opts_);
}

std::shared_ptr<const WorkloadFactory> YcsbFactory::Partition(
    uint32_t shard, uint32_t num_shards) const {
  const uint64_t slice = ShardSlice(opts_.records, shard, num_shards);
  if (slice == 0) return nullptr;
  YcsbOptions o = opts_;
  o.records = slice;
  return std::make_shared<YcsbFactory>(o);
}

}  // namespace workload
}  // namespace face
