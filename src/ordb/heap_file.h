#ifndef XORATOR_ORDB_HEAP_FILE_H_
#define XORATOR_ORDB_HEAP_FILE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "ordb/buffer_pool.h"
#include "ordb/page.h"

namespace xorator::ordb {

struct DegradedScan;

/// An unordered collection of variable-length records stored in a chain of
/// slotted pages. Records larger than a page spill to dedicated overflow
/// pages (an in-page stub points at the overflow chain), which is how large
/// XADT fragments are stored.
///
/// Thread safety: every page is held through a PageRef guard from the
/// (fully thread-safe) BufferPool, and every read path copies record bytes
/// out before the guard releases its pin, so any number of concurrent
/// readers (Get/Scan) are safe. Insert/Delete mutate the page chain and
/// the inline counters and must hold the Database statement lock
/// exclusively — which the engine's statement dispatch guarantees
/// (DESIGN.md section 10). Error paths release pins via the guard's
/// destructor (DESIGN.md section 11), so a failed operation cannot leak a
/// pin.
class HeapFile {
 public:
  /// Creates an empty heap file (allocates its first page).
  [[nodiscard]] static Result<HeapFile> Create(BufferPool* pool);

  /// Re-attaches to an existing heap file rooted at `first_page`.
  HeapFile(BufferPool* pool, PageId first_page, PageId last_page,
           uint64_t record_count, uint64_t page_count);

  PageId first_page() const { return first_page_; }
  PageId last_page() const { return last_page_; }
  uint64_t record_count() const { return record_count_; }
  /// Pages owned by this heap file (data + overflow).
  uint64_t page_count() const { return page_count_; }
  uint64_t bytes() const { return page_count_ * kPageSize; }

  [[nodiscard]] Result<Rid> Insert(std::string_view record);

  /// Reads the record at `rid` (follows overflow stubs) into an owning
  /// string — the page pin is released before returning, so the bytes are
  /// copied out exactly once. Callers decode in place from that buffer via
  /// RowView::Parse (row_codec.h, DESIGN.md section 14); reusing one
  /// `std::string` across Get calls recycles its capacity (see the
  /// executor's member record buffers).
  [[nodiscard]] Result<std::string> Get(const Rid& rid) const;

  [[nodiscard]] Status Delete(const Rid& rid);

  /// Sequential scanner over live records.
  ///
  /// A non-null `degraded` selects the degraded-scan mode (DESIGN.md §13):
  /// instead of failing the scan, a kCorruption page fetch skips the whole
  /// page (salvaging its next-page link from the raw on-disk bytes) and a
  /// corrupt overflow chain skips just that record, and both are counted
  /// into `*degraded`. Null (the default) is strict: a normal scan must
  /// surface corruption.
  class Scanner {
   public:
    Scanner(const HeapFile* file, DegradedScan* degraded);

    /// Advances to the next record; false at end of file. `*record` is
    /// overwritten in place (its capacity is reused across calls — pass
    /// the same string every iteration for an allocation-free scan).
    [[nodiscard]] Result<bool> Next(Rid* rid, std::string* record);

   private:
    /// Reads the corrupt page's raw bytes (no checksum check) to recover
    /// its next-page link; kInvalidPageId ends the scan when the link is
    /// unrecoverable or self-referential.
    [[nodiscard]] Result<PageId> SalvageNextPage(PageId corrupt) const;

    const HeapFile* file_;
    PageId page_;
    uint16_t slot_;
    DegradedScan* degraded_;
    /// Corrupt pages traversed back-to-back; bounds degraded scans over a
    /// damaged chain whose salvaged links could otherwise loop.
    uint64_t skip_run_ = 0;
  };

  Scanner Scan(DegradedScan* degraded = nullptr) const {
    return Scanner(this, degraded);
  }

 private:
  // Record headers distinguishing inline records from overflow stubs.
  static constexpr char kInlineMarker = 0x00;
  static constexpr char kOverflowMarker = 0x01;

  [[nodiscard]] Result<Rid> InsertEncoded(std::string_view payload);
  [[nodiscard]] Result<std::string> ReadOverflow(std::string_view stub) const;

  BufferPool* pool_ = nullptr;
  PageId first_page_ = kInvalidPageId;
  PageId last_page_ = kInvalidPageId;
  uint64_t record_count_ = 0;
  uint64_t page_count_ = 0;
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_HEAP_FILE_H_
