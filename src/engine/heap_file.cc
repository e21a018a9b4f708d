#include "engine/heap_file.h"

namespace face {

StatusOr<HeapFile> HeapFile::Create(BufferPool* pool, Catalog* catalog,
                                    PageWriter* writer,
                                    std::string_view name) {
  FACE_ASSIGN_OR_RETURN(PageHandle page, pool->NewPage());
  HeapPageEditor editor(&page, writer);
  FACE_RETURN_IF_ERROR(editor.Format());
  FACE_ASSIGN_OR_RETURN(
      uint32_t idx,
      catalog->Create(writer, name, ObjectKind::kHeap, page.page_id()));
  return HeapFile(pool, catalog, idx);
}

StatusOr<HeapFile> HeapFile::Open(BufferPool* pool, Catalog* catalog,
                                  std::string_view name) {
  FACE_ASSIGN_OR_RETURN(uint32_t idx, catalog->Find(name));
  if (catalog->entry(idx).kind != ObjectKind::kHeap) {
    return Status::InvalidArgument("catalog entry is not a heap: " +
                                   std::string(name));
  }
  return HeapFile(pool, catalog, idx);
}

StatusOr<Rid> HeapFile::Insert(PageWriter* writer, std::string_view record) {
  if (record.size() >
      kPagePayloadSize - HeapPageLayout::kHeaderSize - HeapPageLayout::kSlotSize) {
    return Status::InvalidArgument("record larger than a heap page");
  }
  PageId tail_id = last_page();
  {
    FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(tail_id));
    HeapPageEditor editor(&page, writer);
    if (editor.view().Fits(static_cast<uint32_t>(record.size()))) {
      FACE_ASSIGN_OR_RETURN(uint16_t slot, editor.Insert(record));
      return Rid{tail_id, slot};
    }
  }
  // Tail is full: grow the chain. Link + catalog update ride the same
  // PageWriter, so the growth is atomic with the insert's transaction.
  FACE_ASSIGN_OR_RETURN(PageHandle fresh, pool_->NewPage());
  HeapPageEditor fresh_editor(&fresh, writer);
  FACE_RETURN_IF_ERROR(fresh_editor.Format());
  FACE_ASSIGN_OR_RETURN(uint16_t slot, fresh_editor.Insert(record));
  {
    FACE_ASSIGN_OR_RETURN(PageHandle tail, pool_->FetchPage(tail_id));
    HeapPageEditor tail_editor(&tail, writer);
    FACE_RETURN_IF_ERROR(tail_editor.SetNextPage(fresh.page_id()));
  }
  FACE_RETURN_IF_ERROR(catalog_->SetLastPage(writer, idx_, fresh.page_id()));
  return Rid{fresh.page_id(), slot};
}

Status HeapFile::Read(Rid rid, std::string* out) const {
  PageHandle page;
  std::string_view rec;
  FACE_RETURN_IF_ERROR(ReadPinned(rid, &page, &rec));
  out->assign(rec.data(), rec.size());
  return Status::OK();
}

Status HeapFile::ReadPinned(Rid rid, PageHandle* page,
                            std::string_view* out) const {
  page->Release();
  FACE_ASSIGN_OR_RETURN(*page, pool_->FetchPage(rid.page_id));
  return RecordAt(*page, rid.slot, out);
}

Status HeapFile::RecordAt(const PageHandle& page, uint16_t slot,
                          std::string_view* out) {
  HeapPageView view(page.data());
  if (!view.SlotLive(slot)) return Status::NotFound("dead heap slot");
  *out = view.Record(slot);
  return Status::OK();
}

Status HeapFile::Update(PageWriter* writer, Rid rid, std::string_view record) {
  FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(rid.page_id));
  HeapPageEditor editor(&page, writer);
  return editor.UpdateInPlace(rid.slot, record);
}

Status HeapFile::Delete(PageWriter* writer, Rid rid) {
  FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(rid.page_id));
  HeapPageEditor editor(&page, writer);
  return editor.Delete(rid.slot);
}

StatusOr<uint64_t> HeapFile::CountPages() const {
  uint64_t n = 0;
  PageId page_id = first_page();
  while (page_id != kInvalidPageId) {
    ++n;
    FACE_ASSIGN_OR_RETURN(PageHandle page, pool_->FetchPage(page_id));
    page_id = HeapPageView(page.data()).next_page();
  }
  return n;
}

StatusOr<uint64_t> HeapFile::CountRows() const {
  uint64_t n = 0;
  FACE_RETURN_IF_ERROR(Scan([&n](Rid, std::string_view) {
    ++n;
    return true;
  }));
  return n;
}

}  // namespace face
