#include "engine/heap_page.h"

#include "common/coding.h"

namespace face {

namespace {
constexpr uint32_t kPayload = kPagePayloadSize;
}  // namespace

bool HeapPageView::Fits(uint32_t len) const {
  if (len > kPayload) return false;
  const uint32_t needed_record = len;
  const uint32_t free = FreeBytes();
  // A tombstone slot can be recycled; otherwise a new slot is also needed.
  for (uint16_t s = 0; s < slot_count(); ++s) {
    if (!SlotLive(s)) return free >= needed_record;
  }
  return free >= needed_record + HeapPageLayout::kSlotSize;
}

std::string_view HeapPageView::Record(uint16_t slot) const {
  if (slot >= slot_count() || !SlotLive(slot)) return {};
  return std::string_view(payload_ + SlotOffset(slot), SlotLen(slot));
}

bool HeapPageView::SlotLive(uint16_t slot) const {
  return slot < slot_count() && SlotOffset(slot) != 0;
}

Status HeapPageEditor::Format() {
  char header[HeapPageLayout::kHeaderSize] = {};
  EncodeFixed16(header + HeapPageLayout::kSlotCountOffset, 0);
  EncodeFixed16(header + HeapPageLayout::kFreeStartOffset,
                HeapPageLayout::kHeaderSize);
  EncodeFixed16(header + HeapPageLayout::kFreeEndOffset,
                static_cast<uint16_t>(kPayload));
  return Write(0, header, sizeof(header));
}

StatusOr<uint16_t> HeapPageEditor::Insert(std::string_view record) {
  if (!view_.Fits(static_cast<uint32_t>(record.size()))) {
    return Status::OutOfSpace("record does not fit in heap page");
  }
  // Recycle the first tombstone slot, if any.
  uint16_t slot = view_.slot_count();
  for (uint16_t s = 0; s < view_.slot_count(); ++s) {
    if (!view_.SlotLive(s)) {
      slot = s;
      break;
    }
  }

  const uint16_t rec_off =
      static_cast<uint16_t>(view_.free_end() - record.size());
  FACE_RETURN_IF_ERROR(
      Write(rec_off, record.data(), static_cast<uint32_t>(record.size())));

  char slot_entry[HeapPageLayout::kSlotSize];
  EncodeFixed16(slot_entry, rec_off);
  EncodeFixed16(slot_entry + 2, static_cast<uint16_t>(record.size()));
  FACE_RETURN_IF_ERROR(Write(
      HeapPageLayout::kHeaderSize + slot * HeapPageLayout::kSlotSize,
      slot_entry, HeapPageLayout::kSlotSize));

  // Header: free_end always shrinks; slot_count/free_start only when a new
  // slot was appended.
  char hdr[6];
  const uint16_t new_count = slot == view_.slot_count()
                                 ? static_cast<uint16_t>(slot + 1)
                                 : view_.slot_count();
  EncodeFixed16(hdr, new_count);
  EncodeFixed16(hdr + 2, static_cast<uint16_t>(
                             HeapPageLayout::kHeaderSize +
                             new_count * HeapPageLayout::kSlotSize));
  EncodeFixed16(hdr + 4, rec_off);
  FACE_RETURN_IF_ERROR(Write(HeapPageLayout::kSlotCountOffset, hdr, 6));
  return slot;
}

Status HeapPageEditor::UpdateInPlace(uint16_t slot, std::string_view record) {
  if (!view_.SlotLive(slot)) {
    return Status::NotFound("update of dead heap slot");
  }
  if (view_.SlotLen(slot) != record.size()) {
    return Status::InvalidArgument("in-place update must preserve length");
  }
  return Write(view_.SlotOffset(slot), record.data(),
               static_cast<uint32_t>(record.size()));
}

Status HeapPageEditor::Delete(uint16_t slot) {
  if (!view_.SlotLive(slot)) {
    return Status::NotFound("delete of dead heap slot");
  }
  char slot_entry[HeapPageLayout::kSlotSize] = {};  // offset 0 => tombstone
  return Write(HeapPageLayout::kHeaderSize + slot * HeapPageLayout::kSlotSize,
               slot_entry, HeapPageLayout::kSlotSize);
}

Status HeapPageEditor::SetNextPage(PageId next) {
  char buf[8];
  EncodeFixed64(buf, next == kInvalidPageId ? 0 : next);
  return Write(HeapPageLayout::kNextPageOffset, buf, 8);
}

}  // namespace face
