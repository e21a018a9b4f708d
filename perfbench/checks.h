// Output checks the benchmark runs on the program's state. Each returns OK
// when the state is correct and a non-OK status describing the first
// violation otherwise; the harness counts every non-OK result as a failed
// attempt, whether it is a violation or an error reading the state.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "engine/database.h"

namespace face {
namespace perfbench {

/// TPC-C consistency conditions 1 and 2 (TPC-C §3.3.2.1-2), read through
/// tpcc::Tables: for every warehouse W_YTD = sum(D_YTD) of its districts,
/// and for every district D_NEXT_O_ID - 1 = max(O_ID) = max(NO_O_ID) (the
/// NEW-ORDER side only while the district has undelivered orders).
Status CheckTpccConsistency(Database* db);

/// ORDER and NEW-ORDER rows present in their primary-key index that a scan
/// of the table's heap chain does not reach. Reported, not counted as a
/// failure: a user-aborted NewOrder that grew a heap chain leaves the
/// in-memory catalog's last page ahead of the rolled-back chain, and later
/// inserts land on a page no chain link reaches (README.md, "Known
/// defects"). A fix in the engine brings this to 0.
StatusOr<uint64_t> RowsOffHeapChain(Database* db);

/// The KV table holds exactly `expected` rows.
Status CheckKvRowCount(Database& db, uint64_t expected);

}  // namespace perfbench
}  // namespace face
