// Slotted heap page laid out inside the 4072-byte page payload:
//
//   [u64 next_page][u16 slot_count][u16 free_start][u16 free_end]  (header)
//   [slot 0][slot 1]...                      slot array, grows upward
//   ...free space...
//   ...[record 1][record 0]                  record space, grows downward
//
// Offsets are payload-relative. A slot is [u16 offset][u16 len]; offset 0
// marks a tombstone (live records always sit above the header). Deleted
// record space is reclaimed only by whole-page compaction, which the heap
// file never performs — like a PostgreSQL heap without VACUUM, the
// workloads this engine targets (TPC-C) grow monotonically and reuse slots,
// not bytes.
#pragma once

#include <cstdint>
#include <string_view>

#include "buffer/buffer_pool.h"
#include "common/status.h"
#include "engine/page_writer.h"
#include "storage/page.h"

namespace face {

/// Payload-relative layout constants of a heap page.
struct HeapPageLayout {
  static constexpr uint32_t kNextPageOffset = 0;
  static constexpr uint32_t kSlotCountOffset = 8;
  static constexpr uint32_t kFreeStartOffset = 10;
  static constexpr uint32_t kFreeEndOffset = 12;
  static constexpr uint32_t kHeaderSize = 14;
  static constexpr uint32_t kSlotSize = 4;
};

/// Read-only view over one heap page's payload.
class HeapPageView {
 public:
  /// `page` is the full 4 KB page image.
  explicit HeapPageView(const char* page)
      : payload_(page + kPageHeaderSize) {}

  PageId next_page() const {
    const PageId raw = DecodeFixed64(payload_ + HeapPageLayout::kNextPageOffset);
    return raw == 0 ? kInvalidPageId : raw;  // zero page => no successor
  }
  uint16_t slot_count() const {
    return DecodeFixed16(payload_ + HeapPageLayout::kSlotCountOffset);
  }
  uint16_t free_start() const {
    return DecodeFixed16(payload_ + HeapPageLayout::kFreeStartOffset);
  }
  uint16_t free_end() const {
    return DecodeFixed16(payload_ + HeapPageLayout::kFreeEndOffset);
  }

  /// True if the page has never been formatted (all-zero header).
  bool IsVirgin() const { return free_end() == 0; }

  /// Contiguous free bytes between the slot array and the record space.
  uint32_t FreeBytes() const {
    return free_end() >= free_start() ? free_end() - free_start() : 0;
  }

  /// True if a record of `len` bytes fits (slot reuse considered).
  bool Fits(uint32_t len) const;

  /// Record bytes of `slot`, or empty view if the slot is a tombstone or
  /// out of range.
  std::string_view Record(uint16_t slot) const;

  /// True if `slot` holds a live record.
  bool SlotLive(uint16_t slot) const;

  const char* payload() const { return payload_; }

 private:
  friend class HeapPageEditor;
  uint16_t SlotOffset(uint16_t slot) const {
    return DecodeFixed16(payload_ + HeapPageLayout::kHeaderSize +
                         slot * HeapPageLayout::kSlotSize);
  }
  uint16_t SlotLen(uint16_t slot) const {
    return DecodeFixed16(payload_ + HeapPageLayout::kHeaderSize +
                         slot * HeapPageLayout::kSlotSize + 2);
  }

  const char* payload_;
};

/// Mutating operations on a pinned heap page; every change goes through the
/// PageWriter (logged or raw).
class HeapPageEditor {
 public:
  HeapPageEditor(PageHandle* page, PageWriter* writer)
      : page_(page), writer_(writer), view_(page->data()) {}

  /// Format a fresh page (empty slot array, full record space, no next).
  Status Format();

  /// Insert `record`; returns the slot used. Caller must check Fits().
  StatusOr<uint16_t> Insert(std::string_view record);

  /// Overwrite the record in `slot` with an equal-length image.
  Status UpdateInPlace(uint16_t slot, std::string_view record);

  /// Tombstone `slot`. The record bytes become dead space.
  Status Delete(uint16_t slot);

  /// Link this page to `next` in the heap file's chain.
  Status SetNextPage(PageId next);

  const HeapPageView& view() const { return view_; }

 private:
  /// Payload-relative write helper.
  Status Write(uint32_t payload_offset, const void* bytes, uint32_t len) {
    return writer_->Apply(page_,
                          static_cast<uint16_t>(kPageHeaderSize + payload_offset),
                          bytes, len);
  }

  PageHandle* page_;
  PageWriter* writer_;
  HeapPageView view_;
};

}  // namespace face
