#include "workload/kv_table.h"

#include <cassert>
#include <cstring>

#include "common/coding.h"
#include "engine/key_codec.h"

namespace face {
namespace workload {

StatusOr<KvTable> KvTable::Create(Database& db, PageWriter* writer) {
  KvTable t;
  FACE_ASSIGN_OR_RETURN(t.rows, db.CreateTable(writer, kTableName));
  FACE_ASSIGN_OR_RETURN(t.pk, db.CreateIndex(writer, kIndexName));
  return t;
}

StatusOr<KvTable> KvTable::Open(Database& db) {
  KvTable t;
  FACE_ASSIGN_OR_RETURN(t.rows, db.OpenTable(kTableName));
  FACE_ASSIGN_OR_RETURN(t.pk, db.OpenIndex(kIndexName));
  return t;
}

std::string KvTable::Key(uint64_t id) {
  return KeyCodec().AppendU64(id).Take();
}

uint64_t KvTable::Letters8(uint64_t draw) {
  // SWAR over even and odd bytes in 16-bit lanes: q = (b * 79) >> 11 equals
  // b / 26 for every byte b, and no lane's product overflows into the next.
  const auto letters = [](uint64_t lanes) {
    const uint64_t q = ((lanes * 79) >> 11) & 0x001f001f001f001full;
    return lanes - q * 26 + 0x0061006100610061ull;  // + 'a' per lane
  };
  constexpr uint64_t kLow = 0x00ff00ff00ff00ffull;
  return letters(draw & kLow) | (letters((draw >> 8) & kLow) << 8);
}

namespace {

constexpr uint64_t kSeedMix = 0x9e3779b97f4a7c15ull;

/// RowTo's image into out[0, 8 + value_bytes).
void RowImage(char* out, uint64_t id, uint32_t value_bytes, uint64_t version) {
  EncodeFixed64(out, id);
  // Deterministic payload bytes from (id, version) — replays reproduce the
  // exact on-media image without storing it anywhere. Eight letters per
  // generator draw, mapped at once by Letters8: this runs once per row of
  // every KV population and of every differential-check sweep.
  Random payload(id * kSeedMix ^ version);
  char* p = out + 8;
  uint32_t i = 0;
  for (; i + 8 <= value_bytes; i += 8) {
    EncodeFixed64(p + i, KvTable::Letters8(payload.Next()));
  }
  for (; i < value_bytes; ++i) {
    p[i] = static_cast<char>('a' + (payload.Next() & 0xff) % 26);
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#define FACE_ROWS_TARGET __attribute__((target("avx512f,avx512dq,avx512bw")))

// GCC vector extensions: under the target above a 64-byte vector is one
// zmm register and a u64 multiply is one vpmullq.
typedef uint64_t U64x8 __attribute__((vector_size(64)));
typedef uint16_t U16x32 __attribute__((vector_size(64)));

/// Letters8's per-byte map with one byte value per 16-bit lane.
FACE_ROWS_TARGET inline U16x32 LettersOfLanes(U16x32 lanes) {
  const U16x32 q = (lanes * 79) >> 11;  // = lanes / 26
  return lanes - q * 26 + 'a';
}

/// Advance eight xorshift64* generators (Random::Next) and map each draw
/// to its eight letters.
FACE_ROWS_TARGET inline U64x8 NextLetters(U64x8* state) {
  U64x8 s = *state;
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  *state = s;
  const auto draw = (U16x32)(s * 0x2545f4914f6cdd1dull);
  return (U64x8)(LettersOfLanes(draw & 0xff) |
                 (LettersOfLanes(draw >> 8) << 8));
}

/// Up to eight rows at once, one generator per 64-bit lane; each lane's
/// letters go to its own row. Byte-for-byte RowImage's output.
FACE_ROWS_TARGET void RowImages8(char* out, const uint64_t* ids,
                                 const uint64_t* versions, uint32_t n,
                                 uint32_t value_bytes) {
  const size_t row_bytes = 8 + size_t{value_bytes};
  U64x8 state;
  for (uint32_t j = 0; j < 8; ++j) {
    // Lanes past n run a dummy generator whose output is never stored.
    const uint64_t seed = j < n ? ids[j] * kSeedMix ^ versions[j] : 0;
    state[j] = seed != 0 ? seed : kSeedMix;  // Random's zero-seed rule
    if (j < n) EncodeFixed64(out + j * row_bytes, ids[j]);
  }
  uint64_t letters[8];
  for (uint32_t i = 0; i < value_bytes;) {
    const U64x8 v = NextLetters(&state);
    memcpy(letters, &v, sizeof(letters));
    // A full group takes all eight letters, a tail byte a draw's first.
    const bool tail = i + 8 > value_bytes;
    for (uint32_t j = 0; j < n; ++j) {
      char* dst = out + j * row_bytes + 8 + i;
      if (tail) {
        *dst = static_cast<char>(letters[j]);
      } else {
        EncodeFixed64(dst, letters[j]);
      }
    }
    i += tail ? 1 : 8;
  }
}

#undef FACE_ROWS_TARGET

const bool kHaveAvx512Rows = __builtin_cpu_supports("avx512f") &&
                             __builtin_cpu_supports("avx512dq") &&
                             __builtin_cpu_supports("avx512bw");
#endif

}  // namespace

void KvTable::RowTo(std::string* out, uint64_t id, uint32_t value_bytes,
                    uint64_t version) {
  out->resize(8 + value_bytes);
  RowImage(out->data(), id, value_bytes, version);
}

void KvTable::RowsTo(char* out, const uint64_t* ids, const uint64_t* versions,
                     uint32_t n, uint32_t value_bytes) {
  assert(n <= 8);
#if defined(__x86_64__) && defined(__GNUC__)
  if (kHaveAvx512Rows) return RowImages8(out, ids, versions, n, value_bytes);
#endif
  for (uint32_t j = 0; j < n; ++j) {
    RowImage(out + j * (8 + size_t{value_bytes}), ids[j], value_bytes,
             versions[j]);
  }
}

bool KvTable::IsRow(const std::string& row, uint64_t id, uint32_t value_bytes,
                    uint64_t version, std::string* scratch) {
  RowTo(scratch, id, value_bytes, version);
  return row == *scratch;
}

Status KvTable::Insert(PageWriter* writer, uint64_t id, uint32_t value_bytes,
                       uint64_t version) {
  RowTo(&row_scratch, id, value_bytes, version);
  FACE_ASSIGN_OR_RETURN(Rid rid, rows.Insert(writer, row_scratch));
  return pk.Insert(writer, Key(id), EncodeRid(rid));
}

Status KvTable::BulkLoad(PageWriter* writer, uint64_t records,
                         uint32_t value_bytes) {
  uint64_t id = 0;
  Status heap_status;
  // Heap append and index build share one pass: the source callback
  // inserts the row, then hands its (key, rid) to the tree builder.
  const Status s = pk.BulkLoad(
      writer, [&](std::string* key, std::string* value) -> bool {
        if (id >= records) return false;
        RowTo(&row_scratch, id, value_bytes, /*version=*/0);
        StatusOr<Rid> rid = rows.Insert(writer, row_scratch);
        if (!rid.ok()) {
          heap_status = rid.status();
          return false;
        }
        *key = Key(id);
        *value = EncodeRid(*rid);
        ++id;
        return true;
      });
  FACE_RETURN_IF_ERROR(heap_status);
  return s;
}

Status KvTable::Populate(PageWriter* writer, uint64_t records,
                         uint32_t value_bytes, bool bulk) {
  if (bulk) return BulkLoad(writer, records, value_bytes);
  for (uint64_t id = 0; id < records; ++id) {
    FACE_RETURN_IF_ERROR(Insert(writer, id, value_bytes, /*version=*/0));
  }
  return Status::OK();
}

Status KvTable::Read(uint64_t id, std::string* out) const {
  std::string rid_value;
  FACE_RETURN_IF_ERROR(pk.Get(Key(id), &rid_value));
  return rows.Read(DecodeRid(rid_value), out);
}

Status KvTable::ReadPinned(uint64_t id, ReadPins* pins,
                           std::string_view* row) const {
  const std::string key = Key(id);
  std::string_view rid_value;
  if (pins->heap.valid() && pk.LookupPinned(pins->path, key, &rid_value)) {
    const Rid rid = DecodeRid(rid_value);
    if (rid.page_id == pins->heap.page_id()) {
      return HeapFile::RecordAt(pins->heap, rid.slot, row);
    }
  }
  pins->heap.Release();
  FACE_RETURN_IF_ERROR(pk.PinPath(key, &pins->path, &rid_value));
  return rows.ReadPinned(DecodeRid(rid_value), &pins->heap, row);
}

Status KvTable::Update(PageWriter* writer, uint64_t id, uint32_t value_bytes,
                       uint64_t version) {
  std::string rid_value;
  FACE_RETURN_IF_ERROR(pk.Get(Key(id), &rid_value));
  RowTo(&row_scratch, id, value_bytes, version);
  return rows.Update(writer, DecodeRid(rid_value), row_scratch);
}

StatusOr<uint64_t> KvTable::Scan(uint64_t id, uint64_t max_rows) const {
  FACE_ASSIGN_OR_RETURN(BPlusTree::Iterator it, pk.Seek(Key(id)));
  uint64_t read = 0;
  std::string row;
  while (it.Valid() && read < max_rows) {
    FACE_RETURN_IF_ERROR(rows.Read(DecodeRid(it.value()), &row));
    ++read;
    FACE_RETURN_IF_ERROR(it.Next());
  }
  return read;
}

StatusOr<uint64_t> KvTable::CountFrom(uint64_t from_id) const {
  FACE_ASSIGN_OR_RETURN(BPlusTree::Iterator it, pk.Seek(Key(from_id)));
  uint64_t n = 0;
  while (it.Valid()) {
    ++n;
    FACE_RETURN_IF_ERROR(it.Next());
  }
  return n;
}

}  // namespace workload
}  // namespace face
