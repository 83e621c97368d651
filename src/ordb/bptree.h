#ifndef XORATOR_ORDB_BPTREE_H_
#define XORATOR_ORDB_BPTREE_H_

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/str_util.h"
#include "ordb/buffer_pool.h"
#include "ordb/page.h"
#include "ordb/value.h"

namespace xorator::ordb {

/// Structural validation of one B+-tree node image (a full kPageSize
/// buffer): type byte is leaf/internal, entry count fits the node's
/// capacity. Every tree operation runs it on each node it fetches before
/// trusting the count — a corrupt count would otherwise index entries past
/// the 8 KB frame. Exposed for the page fuzzer and the adversarial bounds
/// tests. Fails closed with kCorruption.
[[nodiscard]] Status ValidateBPlusTreeNode(std::string_view node);

/// Order-preserving index key for INTEGER columns.
inline uint64_t IntIndexKey(int64_t v) {
  return static_cast<uint64_t>(v) ^ (1ULL << 63);
}

/// Index key of the non-NULL value `v`, a Value or a ValueView read in
/// place, in an index on a `key_type` column: IntIndexKey for INTEGER, a
/// 64-bit hash of the text for string columns.
template <typename V>
uint64_t IndexKey(TypeId key_type, const V& v) {
  return key_type == TypeId::kInteger ? IntIndexKey(v.AsInt())
                                      : Hash64(v.bytes());
}

/// A paged B+-tree mapping fixed-size 64-bit keys to record ids.
///
/// Keys are 64-bit: integer columns use the order-preserving transform
/// above; string columns index a 64-bit hash (point lookups only, with the
/// executor rechecking the predicate on the heap tuple). Duplicate keys are
/// supported — entries are unique on (key, rid).
///
/// Leaf splits move half the entries to the new right leaf, except that an
/// entry landing past a full leaf's last entry moves alone, so ascending
/// inserts (every index backfill) leave full leaves behind.
///
/// Deletion is "lazy": the entry is removed from its leaf but nodes are not
/// rebalanced, which is adequate for this engine's bulk-load-then-query
/// usage.
///
/// Thread safety: lookups (Find/FindRange) hold each node through a
/// PageRef guard from the (fully thread-safe) BufferPool and copy node
/// contents out before releasing it, so concurrent readers are safe.
/// Insert/Delete restructure nodes and update the inline counters and must
/// hold the Database statement lock exclusively (DESIGN.md section 10).
/// Every page access goes through a PageRef (DESIGN.md section 11): error
/// paths release pins via the guard's destructor, so no fault can leak a
/// pin and wedge eviction.
class BPlusTree {
 public:
  /// Creates an empty tree (allocates the root leaf).
  [[nodiscard]] static Result<BPlusTree> Create(BufferPool* pool);

  /// Re-attaches to an existing tree.
  BPlusTree(BufferPool* pool, PageId root, uint64_t page_count,
            uint64_t entry_count)
      : pool_(pool),
        root_(root),
        page_count_(page_count),
        entry_count_(entry_count) {}

  PageId root() const { return root_; }
  uint64_t page_count() const { return page_count_; }
  uint64_t bytes() const { return page_count_ * kPageSize; }
  uint64_t entry_count() const { return entry_count_; }

  [[nodiscard]] Status Insert(uint64_t key, uint64_t rid);

  /// Removes one (key, rid) entry; NotFound if absent.
  [[nodiscard]] Status Delete(uint64_t key, uint64_t rid);

  /// All rids whose key equals `key`.
  [[nodiscard]] Result<std::vector<uint64_t>> Find(uint64_t key) const;

  /// All rids with key in [lo, hi], in key order.
  [[nodiscard]] Result<std::vector<uint64_t>> FindRange(uint64_t lo, uint64_t hi) const;

  /// The last key of the rightmost leaf: the largest key in the tree, or
  /// nullopt when that leaf is empty, which deletes can leave behind while
  /// other leaves still hold entries.
  [[nodiscard]] Result<std::optional<uint64_t>> LastKey() const;

  /// Structural invariant check for tests: keys sorted within nodes, leaf
  /// chain ordered, parent separators bound children.
  [[nodiscard]] Status CheckInvariants() const;

 private:
  struct SplitResult {
    bool split = false;
    uint64_t separator = 0;
    PageId right = kInvalidPageId;
  };

  [[nodiscard]] Result<SplitResult> InsertRecursive(PageId node, uint64_t key, uint64_t rid);
  [[nodiscard]] Result<PageId> FindLeaf(uint64_t key) const;
  [[nodiscard]] Status CheckNode(PageId node, uint64_t lo, uint64_t hi, int depth,
                   int* leaf_depth) const;

  BufferPool* pool_;
  PageId root_;
  uint64_t page_count_;
  uint64_t entry_count_;
  /// Rid half of the separator produced by the innermost split while an
  /// insert is unwinding (separators are (key, rid) pairs).
  uint64_t separator_rid_ = 0;
};

}  // namespace xorator::ordb

#endif  // XORATOR_ORDB_BPTREE_H_
