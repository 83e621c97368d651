#include "ordb/heap_file.h"

#include <algorithm>

#include "common/span.h"
#include "ordb/health.h"

namespace xorator::ordb {

namespace {
// Overflow page layout, after the common checksummed page header:
// [next:u32][len:u32][bytes...].
constexpr size_t kOverflowBase = kPageHeaderBytes;
constexpr size_t kOverflowHeader = kOverflowBase + 8;
constexpr size_t kOverflowCapacity = kPageSize - kOverflowHeader;
// Records at most this large are stored inline in a slotted page.
constexpr size_t kMaxInline = kPageSize - 64;
// Preallocation cap for overflow reads: the stub's total-length field is
// untrusted bytes, so reserve() must not take it at face value (a corrupt
// stub could otherwise demand an arbitrary allocation before the chain
// walk proves it short). Longer genuine records just grow amortized.
constexpr size_t kMaxOverflowReserve = size_t{1} << 20;
}  // namespace

Result<HeapFile> HeapFile::Create(BufferPool* pool) {
  XO_ASSIGN_OR_RETURN(PageRef page, pool->Create());
  SlottedPage(page.data()).Init();
  const PageId first = page.id();
  RETURN_IF_ERROR(page.Release());
  return HeapFile(pool, first, first, 0, 1);
}

HeapFile::HeapFile(BufferPool* pool, PageId first_page, PageId last_page,
                   uint64_t record_count, uint64_t page_count)
    : pool_(pool),
      first_page_(first_page),
      last_page_(last_page),
      record_count_(record_count),
      page_count_(page_count) {}

Result<Rid> HeapFile::Insert(std::string_view record) {
  std::string payload;
  if (record.size() + 1 <= kMaxInline) {
    payload.reserve(record.size() + 1);
    payload.push_back(kInlineMarker);
    payload.append(record);
    return InsertEncoded(payload);
  }
  // Spill to an overflow chain, then store a stub.
  PageId head = kInvalidPageId;
  PageId prev = kInvalidPageId;
  size_t pos = 0;
  while (pos < record.size()) {
    size_t chunk = std::min(kOverflowCapacity, record.size() - pos);
    XO_ASSIGN_OR_RETURN(PageRef page, pool_->Create());
    ++page_count_;
    xo::MutableByteSpan frame(page.data(), kPageSize);
    xo::StoreFixedUnchecked<uint32_t>(frame, kOverflowBase, kInvalidPageId);
    xo::StoreFixedUnchecked(frame, kOverflowBase + 4,
                            static_cast<uint32_t>(chunk));
    RETURN_IF_ERROR(
        xo::CopyInto(frame, kOverflowHeader, record.substr(pos, chunk)));
    const PageId cur = page.id();
    RETURN_IF_ERROR(page.Release());
    if (prev != kInvalidPageId) {
      XO_ASSIGN_OR_RETURN(PageRef prev_ref, pool_->Fetch(prev));
      xo::StoreFixedUnchecked<uint32_t>(
          xo::MutableByteSpan(prev_ref.data(), kPageSize), kOverflowBase, cur);
      prev_ref.MarkDirty();
      RETURN_IF_ERROR(prev_ref.Release());
    } else {
      head = cur;
    }
    prev = cur;
    pos += chunk;
  }
  payload.push_back(kOverflowMarker);
  xo::AppendU32(&payload, head);
  xo::AppendU64(&payload, record.size());
  return InsertEncoded(payload);
}

Result<Rid> HeapFile::InsertEncoded(std::string_view payload) {
  XO_ASSIGN_OR_RETURN(PageRef last_ref, pool_->Fetch(last_page_));
  SlottedPage page(last_ref.data());
  if (page.Fits(payload.size())) {
    // Dirty even if the insert fails: Insert may have compacted the page
    // before running out of contiguous space.
    last_ref.MarkDirty();
    XO_ASSIGN_OR_RETURN(const uint16_t slot, page.Insert(payload));
    RETURN_IF_ERROR(last_ref.Release());
    ++record_count_;
    return Rid{last_page_, slot};
  }
  // Chain a fresh page.
  XO_ASSIGN_OR_RETURN(PageRef fresh_ref, pool_->Create());
  ++page_count_;
  SlottedPage fresh_page(fresh_ref.data());
  fresh_page.Init();
  page.set_next_page(fresh_ref.id());
  last_ref.MarkDirty();
  last_page_ = fresh_ref.id();
  XO_ASSIGN_OR_RETURN(const uint16_t slot, fresh_page.Insert(payload));
  RETURN_IF_ERROR(fresh_ref.Release());
  RETURN_IF_ERROR(last_ref.Release());
  ++record_count_;
  return Rid{last_page_, slot};
}

Result<std::string> HeapFile::ReadOverflow(std::string_view stub) const {
  xo::BoundedReader reader(stub);
  XO_ASSIGN_OR_RETURN(uint32_t page_id, reader.ReadU32());
  XO_ASSIGN_OR_RETURN(const uint64_t total, reader.ReadU64());
  if (!reader.AtEnd()) return Status::Internal("bad overflow stub");
  std::string out;
  out.reserve(static_cast<size_t>(
      std::min<uint64_t>(total, kMaxOverflowReserve)));
  // A valid chain for `total` bytes is at most this many pages; a corrupt
  // chain that cycles (or dribbles zero-length chunks) trips the bound
  // instead of looping forever.
  const uint64_t max_chain_pages = total / kOverflowCapacity + 2;
  uint64_t chain_pages = 0;
  while (page_id != kInvalidPageId && out.size() < total) {
    if (++chain_pages > max_chain_pages) {
      return Status::Corruption("overflow chain longer than its record");
    }
    XO_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(page_id));
    xo::ByteSpan frame(ref.data(), kPageSize);
    XO_ASSIGN_OR_RETURN(uint32_t next, xo::LoadU32(frame, kOverflowBase));
    XO_ASSIGN_OR_RETURN(uint32_t len, xo::LoadU32(frame, kOverflowBase + 4));
    auto chunk = xo::ViewBytes(frame, kOverflowHeader, len);
    if (!chunk.ok()) {
      return Status::Corruption("overflow page " + std::to_string(page_id) +
                                " has a bad chunk length");
    }
    out.append(*chunk);
    RETURN_IF_ERROR(ref.Release());
    page_id = next;
  }
  if (out.size() != total) {
    return Status::Corruption("truncated overflow chain");
  }
  return out;
}

Result<std::string> HeapFile::Get(const Rid& rid) const {
  XO_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(rid.page_id));
  SlottedPage page(ref.data());
  XO_ASSIGN_OR_RETURN(std::string_view bytes, page.Get(rid.slot));
  if (bytes.empty()) {
    return Status::Internal("empty record payload");
  }
  if (bytes[0] == kInlineMarker) {
    std::string out(bytes.substr(1));
    RETURN_IF_ERROR(ref.Release());
    return out;
  }
  std::string stub(bytes.substr(1));
  RETURN_IF_ERROR(ref.Release());
  return ReadOverflow(stub);
}

Status HeapFile::Delete(const Rid& rid) {
  XO_ASSIGN_OR_RETURN(PageRef ref, pool_->Fetch(rid.page_id));
  SlottedPage page(ref.data());
  // On failure the guard's destructor releases the pin clean — the page
  // was not modified.
  RETURN_IF_ERROR(page.Delete(rid.slot));
  ref.MarkDirty();
  RETURN_IF_ERROR(ref.Release());
  if (record_count_ > 0) --record_count_;
  return Status::OK();
}

HeapFile::Scanner::Scanner(const HeapFile* file, DegradedScan* degraded)
    : file_(file), page_(file->first_page_), slot_(0), degraded_(degraded) {}

namespace {
/// Longest run of consecutive corrupt pages a degraded scan will follow.
/// Salvaged next-links are unverified, so a badly damaged chain could
/// otherwise cycle through garbage page ids forever.
constexpr uint64_t kMaxSkipRun = 1024;
}  // namespace

Result<PageId> HeapFile::Scanner::SalvageNextPage(PageId corrupt) const {
  char raw[kPageSize];
  Status read = file_->pool_->ReadForSalvage(corrupt, raw);
  if (read.IsRetryable() || read.code() == StatusCode::kInternal) {
    return read;  // transient storm / pool exhaustion — not a verdict
  }
  if (!read.ok()) return kInvalidPageId;  // unreadable: end of usable chain
  SlottedPage page(raw);
  if (!page.initialized()) return kInvalidPageId;  // garbage header
  PageId next = page.next_page();
  if (next == corrupt) return kInvalidPageId;  // self-loop
  return next;
}

Result<bool> HeapFile::Scanner::Next(Rid* rid, std::string* record) {
  while (page_ != kInvalidPageId) {
    // Scan the current page inside its own pin scope; overflow stubs are
    // resolved after the pin is released (overflow reads pin other pages).
    std::string stub;
    bool have_stub = false;
    uint16_t stub_slot = 0;
    {
      auto fetched = file_->pool_->Fetch(page_);
      if (!fetched.ok()) {
        if (degraded_ == nullptr ||
            fetched.status().code() != StatusCode::kCorruption) {
          return fetched.status();
        }
        // Degraded scan: count the page out, recover the chain link from
        // the raw bytes, and keep going (DESIGN.md §13).
        ++degraded_->skipped_pages;
        ++degraded_->skipped_records;  // at least the page's records are gone
        if (++skip_run_ > kMaxSkipRun) {
          return Status::Corruption(
              "heap chain unscannable: " + std::to_string(skip_run_) +
              " consecutive corrupt pages from page " + std::to_string(page_));
        }
        XO_ASSIGN_OR_RETURN(page_, SalvageNextPage(page_));
        slot_ = 0;
        continue;
      }
      skip_run_ = 0;
      PageRef ref = std::move(*fetched);
      SlottedPage page(ref.data());
      if (!page.initialized()) {
        // A chained page whose initialization never reached disk (crash
        // without recovery): surface it rather than scanning garbage.
        if (degraded_ == nullptr) {
          return Status::Corruption("heap chain reaches uninitialized page " +
                                    std::to_string(page_));
        }
        // An uninitialized page is the chain's torn tail — end the scan.
        ++degraded_->skipped_pages;
        ++degraded_->skipped_records;
        RETURN_IF_ERROR(ref.Release());
        page_ = kInvalidPageId;
        break;
      }
      uint16_t count = page.slot_count();
      while (slot_ < count) {
        uint16_t s = slot_++;
        auto bytes = page.Get(s);
        if (!bytes.ok()) continue;  // tombstone
        std::string_view payload = *bytes;
        if (payload.empty()) continue;
        if (payload[0] == kInlineMarker) {
          record->assign(payload.substr(1));
          *rid = Rid{page_, s};
          RETURN_IF_ERROR(ref.Release());
          return true;
        }
        stub.assign(payload.substr(1));
        have_stub = true;
        stub_slot = s;
        break;
      }
      if (!have_stub) {
        PageId next = page.next_page();
        RETURN_IF_ERROR(ref.Release());
        if (next == page_) {
          return Status::Corruption("heap chain cycle at page " +
                                    std::to_string(page_));
        }
        page_ = next;
        slot_ = 0;
        continue;
      }
      RETURN_IF_ERROR(ref.Release());
    }
    auto overflow = file_->ReadOverflow(stub);
    if (!overflow.ok()) {
      if (degraded_ != nullptr &&
          overflow.status().code() == StatusCode::kCorruption) {
        // The record's overflow chain is damaged; drop the record, keep
        // the page (slot_ already points past it).
        ++degraded_->skipped_records;
        continue;
      }
      return overflow.status();
    }
    *record = std::move(*overflow);
    *rid = Rid{page_, stub_slot};
    return true;
  }
  return false;
}

}  // namespace xorator::ordb
