#include "checks.h"

#include <algorithm>
#include <map>
#include <string>
#include <utility>

#include "tpcc/schema.h"
#include "tpcc/tables.h"
#include "workload/kv_table.h"

namespace face {
namespace perfbench {

namespace {

/// Call `fn(row)` for the heap row behind every entry of index `pk`.
template <typename Fn>
Status ForEachIndexedRow(const BPlusTree& pk, const HeapFile& heap, Fn&& fn) {
  FACE_ASSIGN_OR_RETURN(BPlusTree::Iterator it, pk.SeekFirst());
  std::string row;
  while (it.Valid()) {
    FACE_RETURN_IF_ERROR(heap.Read(DecodeRid(it.value()), &row));
    fn(std::string_view(row));
    FACE_RETURN_IF_ERROR(it.Next());
  }
  return Status::OK();
}

/// Index entries of `pk` minus live rows a scan of `heap` reaches.
StatusOr<uint64_t> Unreachable(const BPlusTree& pk, const HeapFile& heap) {
  FACE_ASSIGN_OR_RETURN(uint64_t indexed, pk.CountEntries());
  FACE_ASSIGN_OR_RETURN(uint64_t scanned, heap.CountRows());
  return indexed > scanned ? indexed - scanned : 0;
}

}  // namespace

Status CheckTpccConsistency(Database* db) {
  FACE_ASSIGN_OR_RETURN(tpcc::Tables t, tpcc::Tables::Open(db));

  std::map<uint32_t, int64_t> w_ytd;
  FACE_RETURN_IF_ERROR(t.warehouse.Scan([&](Rid, std::string_view row) {
    const tpcc::WarehouseRowView w = tpcc::WarehouseRowView::Decode(row);
    w_ytd[w.w_id] = w.w_ytd;
    return true;
  }));

  using District = std::pair<uint32_t, uint32_t>;  // (w_id, d_id)
  std::map<uint32_t, int64_t> d_ytd_sum;
  std::map<District, uint32_t> next_o_id;
  FACE_RETURN_IF_ERROR(t.district.Scan([&](Rid, std::string_view row) {
    const tpcc::DistrictRowView d = tpcc::DistrictRowView::Decode(row);
    d_ytd_sum[d.d_w_id] += d.d_ytd;
    next_o_id[{d.d_w_id, d.d_id}] = d.d_next_o_id;
    return true;
  }));

  // max(O_ID) and max(NO_O_ID) are read through the primary-key indexes:
  // every committed row is reachable there (see RowsOffHeapChain).
  std::map<District, uint32_t> max_o_id;
  FACE_RETURN_IF_ERROR(
      ForEachIndexedRow(t.pk_orders, t.orders, [&](std::string_view row) {
        const tpcc::OrderRow o = tpcc::OrderRow::Decode(row);
        uint32_t& m = max_o_id[{o.o_w_id, o.o_d_id}];
        m = std::max(m, o.o_id);
      }));
  std::map<District, uint32_t> max_no_o_id;
  FACE_RETURN_IF_ERROR(
      ForEachIndexedRow(t.pk_new_order, t.new_order, [&](std::string_view row) {
        const tpcc::NewOrderRow no = tpcc::NewOrderRow::Decode(row);
        uint32_t& m = max_no_o_id[{no.no_w_id, no.no_d_id}];
        m = std::max(m, no.no_o_id);
      }));

  if (w_ytd.empty() || next_o_id.empty()) {
    return Status::Corruption("TPC-C: no warehouse or district rows");
  }
  for (const auto& [w_id, ytd] : w_ytd) {
    if (ytd != d_ytd_sum[w_id]) {
      return Status::Corruption(
          "TPC-C condition 1: warehouse " + std::to_string(w_id) +
          " W_YTD=" + std::to_string(ytd) +
          " != sum(D_YTD)=" + std::to_string(d_ytd_sum[w_id]));
    }
  }
  for (const auto& [district, next] : next_o_id) {
    const std::string where = "warehouse " + std::to_string(district.first) +
                              " district " + std::to_string(district.second);
    if (next - 1 != max_o_id[district]) {
      return Status::Corruption(
          "TPC-C condition 2: " + where + " D_NEXT_O_ID-1=" +
          std::to_string(next - 1) +
          " != max(O_ID)=" + std::to_string(max_o_id[district]));
    }
    const auto no = max_no_o_id.find(district);
    if (no != max_no_o_id.end() && no->second != next - 1) {
      return Status::Corruption(
          "TPC-C condition 2: " + where + " D_NEXT_O_ID-1=" +
          std::to_string(next - 1) +
          " != max(NO_O_ID)=" + std::to_string(no->second));
    }
  }
  return Status::OK();
}

StatusOr<uint64_t> RowsOffHeapChain(Database* db) {
  FACE_ASSIGN_OR_RETURN(tpcc::Tables t, tpcc::Tables::Open(db));
  FACE_ASSIGN_OR_RETURN(uint64_t orders, Unreachable(t.pk_orders, t.orders));
  FACE_ASSIGN_OR_RETURN(uint64_t new_orders,
                        Unreachable(t.pk_new_order, t.new_order));
  return orders + new_orders;
}

Status CheckKvRowCount(Database& db, uint64_t expected) {
  FACE_ASSIGN_OR_RETURN(workload::KvTable table, workload::KvTable::Open(db));
  FACE_ASSIGN_OR_RETURN(uint64_t rows, table.CountFrom(0));
  if (rows != expected) {
    return Status::Corruption("KV row count " + std::to_string(rows) +
                              " != expected " + std::to_string(expected));
  }
  return Status::OK();
}

}  // namespace perfbench
}  // namespace face
