// Heap file: an append-friendly chain of slotted pages holding one table's
// rows, addressed by Rid {page, slot}. Inserts go to the chain's tail page
// (allocating and linking a new page when full, with the link and the
// catalog's tail pointer updated in the same transaction); point reads,
// in-place updates and deletes address rows directly by Rid. Full-table
// scans walk the chain.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "engine/catalog.h"
#include "engine/heap_page.h"
#include "engine/page_writer.h"

namespace face {

/// Heap file handle; cheap to construct from a catalog entry. Stateless
/// beyond the catalog index — the authoritative first/last pages live in
/// the (recovered) catalog.
class HeapFile {
 public:
  /// Invalid handle; assign from Create/Open before use.
  HeapFile() = default;

  /// `catalog_idx` must refer to a kHeap entry.
  HeapFile(BufferPool* pool, Catalog* catalog, uint32_t catalog_idx)
      : pool_(pool), catalog_(catalog), idx_(catalog_idx) {}

  /// Create a heap file: allocates its first page and registers `name`.
  static StatusOr<HeapFile> Create(BufferPool* pool, Catalog* catalog,
                                   PageWriter* writer, std::string_view name);

  /// Open an existing heap file by name.
  static StatusOr<HeapFile> Open(BufferPool* pool, Catalog* catalog,
                                 std::string_view name);

  /// Append `record`, growing the chain as needed. Returns the new Rid.
  StatusOr<Rid> Insert(PageWriter* writer, std::string_view record);

  /// Copy the record at `rid` into `out`. NotFound for dead slots.
  Status Read(Rid rid, std::string* out) const;
  /// Read without the copy: fetch rid's page into `*page` (its old pin
  /// released first) and view the record there while the pin lasts.
  Status ReadPinned(Rid rid, PageHandle* page, std::string_view* out) const;
  /// The record at `slot` of the page `page` already pins, as Read finds
  /// it, with no fetch. NotFound for dead slots.
  static Status RecordAt(const PageHandle& page, uint16_t slot,
                         std::string_view* out);

  /// Overwrite the record at `rid` with an equal-length image.
  Status Update(PageWriter* writer, Rid rid, std::string_view record);

  /// Tombstone the record at `rid`.
  Status Delete(PageWriter* writer, Rid rid);

  /// Walk every live record; `fn(rid, record)` returns false to stop early.
  /// The record view is only valid during the call.
  template <typename Fn>
  Status Scan(Fn&& fn) const {
    PageId page_id = first_page();
    while (page_id != kInvalidPageId) {
      FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(page_id));
      HeapPageView view(page.data());
      for (uint16_t s = 0; s < view.slot_count(); ++s) {
        if (!view.SlotLive(s)) continue;
        if (!fn(Rid{page_id, s}, view.Record(s))) return Status::OK();
      }
      page_id = view.next_page();
    }
    return Status::OK();
  }

  PageId first_page() const { return catalog_->entry(idx_).root_page; }
  PageId last_page() const { return catalog_->entry(idx_).last_page; }
  const std::string& name() const { return catalog_->entry(idx_).name; }
  uint32_t catalog_index() const { return idx_; }

  /// Pages currently in the chain (walks it; test/tool helper).
  StatusOr<uint64_t> CountPages() const;
  /// Live records in the chain (walks it; test/tool helper).
  StatusOr<uint64_t> CountRows() const;

 private:
  BufferPool* pool_ = nullptr;
  Catalog* catalog_ = nullptr;
  uint32_t idx_ = 0;
};

}  // namespace face
