#include "ordb/bptree.h"

#include "common/span.h"

namespace xorator::ordb {

namespace {

// Node layout, after the common checksummed page header (kPageHeaderBytes).
//   byte 0:      type (0 = leaf, 1 = internal)
//   bytes 2..3:  entry count (u16)
//   bytes 4..7:  leaf: next-leaf page id; internal: first child page id
// Leaf entries at offset 8:      (key u64, rid u64)            = 16 bytes
// Internal entries at offset 8:  (key u64, rid u64, child u32) = 20 bytes
// Internal separators are (key, rid) pairs so duplicate keys route
// deterministically; child[i] holds entries < separator[i], the extra
// child in the header holds the leftmost subtree.
constexpr size_t kNodeBase = kPageHeaderBytes;
constexpr size_t kEntryOffset = kNodeBase + 8;
constexpr size_t kLeafEntryBytes = 16;
constexpr size_t kInternalEntryBytes = 20;
constexpr size_t kLeafCapacity = (kPageSize - kEntryOffset) / kLeafEntryBytes;
constexpr size_t kInternalCapacity =
    (kPageSize - kEntryOffset) / kInternalEntryBytes;

struct EntryKey {
  uint64_t key;
  uint64_t rid;
  bool operator<(const EntryKey& o) const {
    return key != o.key ? key < o.key : rid < o.rid;
  }
};

// Node bytes are accessed through span.h only. Entry offsets are of the
// form kEntryOffset + i * entry_bytes with i < count; the count comes off
// disk, so every fetch runs ValidateBPlusTreeNode before the unchecked
// accessors below may trust it (a corrupt count would otherwise index past
// the 8 KB frame).
std::string_view NodeView(const char* node XO_LIFETIME_BOUND) {
  return std::string_view(node, kPageSize);
}
xo::MutableByteSpan NodeSpan(char* node XO_LIFETIME_BOUND) {
  return xo::MutableByteSpan(node, kPageSize);
}

bool IsLeaf(const char* node) {
  return xo::LoadFixedUnchecked<uint8_t>(NodeView(node), kNodeBase) == 0;
}
void SetLeaf(char* node, bool leaf) {
  xo::StoreFixedUnchecked<uint8_t>(NodeSpan(node), kNodeBase, leaf ? 0 : 1);
}
uint16_t Count(const char* node) {
  return xo::LoadFixedUnchecked<uint16_t>(NodeView(node), kNodeBase + 2);
}
void SetCount(char* node, uint16_t c) {
  xo::StoreFixedUnchecked(NodeSpan(node), kNodeBase + 2, c);
}
PageId Link(const char* node) {
  return xo::LoadFixedUnchecked<PageId>(NodeView(node), kNodeBase + 4);
}
void SetLink(char* node, PageId p) {
  xo::StoreFixedUnchecked(NodeSpan(node), kNodeBase + 4, p);
}

EntryKey LeafEntry(const char* node, size_t i) {
  const size_t off = kEntryOffset + i * kLeafEntryBytes;
  return EntryKey{xo::LoadFixedUnchecked<uint64_t>(NodeView(node), off),
                  xo::LoadFixedUnchecked<uint64_t>(NodeView(node), off + 8)};
}
void SetLeafEntry(char* node, size_t i, EntryKey e) {
  const size_t off = kEntryOffset + i * kLeafEntryBytes;
  xo::StoreFixedUnchecked(NodeSpan(node), off, e.key);
  xo::StoreFixedUnchecked(NodeSpan(node), off + 8, e.rid);
}

EntryKey InternalSep(const char* node, size_t i) {
  const size_t off = kEntryOffset + i * kInternalEntryBytes;
  return EntryKey{xo::LoadFixedUnchecked<uint64_t>(NodeView(node), off),
                  xo::LoadFixedUnchecked<uint64_t>(NodeView(node), off + 8)};
}
PageId InternalChild(const char* node, size_t i) {
  // child 0 lives in the header link; child i (i >= 1) follows separator i-1.
  if (i == 0) return Link(node);
  return xo::LoadFixedUnchecked<PageId>(
      NodeView(node), kEntryOffset + (i - 1) * kInternalEntryBytes + 16);
}
void SetInternalEntry(char* node, size_t i, EntryKey sep, PageId child) {
  const size_t off = kEntryOffset + i * kInternalEntryBytes;
  xo::StoreFixedUnchecked(NodeSpan(node), off, sep.key);
  xo::StoreFixedUnchecked(NodeSpan(node), off + 8, sep.rid);
  xo::StoreFixedUnchecked(NodeSpan(node), off + 16, child);
}

/// Shifts `n` entries of `entry_bytes` each from entry index `src` to
/// entry index `dst` (overlap-safe); kCorruption when either range would
/// escape the frame.
[[nodiscard]] Status ShiftEntries(char* node, size_t dst, size_t src,
                                  size_t n, size_t entry_bytes) {
  return xo::MoveWithin(NodeSpan(node), kEntryOffset + dst * entry_bytes,
                        kEntryOffset + src * entry_bytes, n * entry_bytes);
}

// First index i such that target < separator[i]; the search key descends
// into child i.
size_t ChildIndexFor(const char* node, EntryKey target) {
  size_t lo = 0, hi = Count(node);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (target < InternalSep(node, mid)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

// First leaf index i such that entry[i] >= target.
size_t LeafLowerBound(const char* node, EntryKey target) {
  size_t lo = 0, hi = Count(node);
  while (lo < hi) {
    size_t mid = (lo + hi) / 2;
    if (LeafEntry(node, mid) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

Status ValidateBPlusTreeNode(std::string_view node) {
  if (node.size() != kPageSize) {
    return Status::Corruption("B+-tree node is not a full page");
  }
  const uint8_t type = xo::LoadFixedUnchecked<uint8_t>(node, kNodeBase);
  if (type > 1) {
    return Status::Corruption("unknown B+-tree node type " +
                              std::to_string(type));
  }
  const uint16_t count =
      xo::LoadFixedUnchecked<uint16_t>(node, kNodeBase + 2);
  const size_t capacity = type == 0 ? kLeafCapacity : kInternalCapacity;
  if (count > capacity) {
    return Status::Corruption("B+-tree node claims " + std::to_string(count) +
                              " entries, capacity is " +
                              std::to_string(capacity));
  }
  return Status::OK();
}

Result<BPlusTree> BPlusTree::Create(BufferPool* pool) {
  XO_ASSIGN_OR_RETURN(PageRef page, pool->Create());
  SetLeaf(page.data(), true);
  SetCount(page.data(), 0);
  SetLink(page.data(), kInvalidPageId);
  const PageId root = page.id();
  RETURN_IF_ERROR(page.Release());
  return BPlusTree(pool, root, 1, 0);
}

Result<BPlusTree::SplitResult> BPlusTree::InsertRecursive(PageId node_id,
                                                          uint64_t key,
                                                          uint64_t rid) {
  XO_ASSIGN_OR_RETURN(PageRef node_ref, pool_->Fetch(node_id));
  char* node = node_ref.data();
  RETURN_IF_ERROR(ValidateBPlusTreeNode(NodeView(node)));
  EntryKey entry{key, rid};
  if (IsLeaf(node)) {
    uint16_t count = Count(node);
    size_t pos = LeafLowerBound(node, entry);
    if (count < kLeafCapacity) {
      RETURN_IF_ERROR(
          ShiftEntries(node, pos + 1, pos, count - pos, kLeafEntryBytes));
      SetLeafEntry(node, pos, entry);
      SetCount(node, count + 1);
      node_ref.MarkDirty();
      RETURN_IF_ERROR(node_ref.Release());
      return SplitResult{};
    }
    // Split the leaf: left keeps the lower half. An entry landing past the
    // last one (ordered inserts: every CreateIndex backfill, which reads
    // the heap in RID order) starts an empty right leaf instead, so
    // ascending runs leave full leaves behind rather than half-empty ones.
    XO_ASSIGN_OR_RETURN(PageRef right_ref, pool_->Create());
    ++page_count_;
    char* right = right_ref.data();
    SetLeaf(right, true);
    size_t mid = pos == count ? count : count / 2;
    size_t right_count = count - mid;
    XO_ASSIGN_OR_RETURN(
        std::string_view upper_half,
        xo::ViewBytes(xo::SpanOf(NodeView(node)),
                      kEntryOffset + mid * kLeafEntryBytes,
                      right_count * kLeafEntryBytes));
    RETURN_IF_ERROR(xo::CopyInto(NodeSpan(right), kEntryOffset, upper_half));
    SetCount(right, static_cast<uint16_t>(right_count));
    SetLink(right, Link(node));
    SetCount(node, static_cast<uint16_t>(mid));
    SetLink(node, right_ref.id());
    // Insert into the proper half (an appended entry always goes right).
    const bool left = pos < count && pos <= mid;
    char* target = left ? node : right;
    size_t tpos = left ? pos : pos - mid;
    uint16_t tcount = Count(target);
    RETURN_IF_ERROR(
        ShiftEntries(target, tpos + 1, tpos, tcount - tpos, kLeafEntryBytes));
    SetLeafEntry(target, tpos, entry);
    SetCount(target, tcount + 1);
    EntryKey sep = LeafEntry(right, 0);
    node_ref.MarkDirty();
    SplitResult out;
    out.split = true;
    out.separator = sep.key;
    out.right = right_ref.id();
    separator_rid_ = sep.rid;
    RETURN_IF_ERROR(right_ref.Release());
    RETURN_IF_ERROR(node_ref.Release());
    return out;
  }

  // Internal node.
  size_t child_idx = ChildIndexFor(node, entry);
  PageId child = InternalChild(node, child_idx);
  RETURN_IF_ERROR(node_ref.Release());
  XO_ASSIGN_OR_RETURN(SplitResult child_split,
                      InsertRecursive(child, key, rid));
  if (!child_split.split) return SplitResult{};

  EntryKey sep{child_split.separator, separator_rid_};
  PageId new_child = child_split.right;
  XO_ASSIGN_OR_RETURN(node_ref, pool_->Fetch(node_id));
  node = node_ref.data();
  RETURN_IF_ERROR(ValidateBPlusTreeNode(NodeView(node)));
  uint16_t count = Count(node);
  size_t pos = ChildIndexFor(node, sep);
  if (count < kInternalCapacity) {
    RETURN_IF_ERROR(
        ShiftEntries(node, pos + 1, pos, count - pos, kInternalEntryBytes));
    SetInternalEntry(node, pos, sep, new_child);
    SetCount(node, count + 1);
    node_ref.MarkDirty();
    RETURN_IF_ERROR(node_ref.Release());
    return SplitResult{};
  }
  // Split the internal node. Gather entries into a scratch array first.
  struct Item {
    EntryKey sep;
    PageId child;
  };
  std::vector<Item> items;
  items.reserve(count + 1);
  for (size_t i = 0; i < count; ++i) {
    items.push_back({InternalSep(node, i), InternalChild(node, i + 1)});
  }
  items.insert(items.begin() + pos, {sep, new_child});
  size_t mid = items.size() / 2;
  EntryKey up = items[mid].sep;

  XO_ASSIGN_OR_RETURN(PageRef right_ref, pool_->Create());
  ++page_count_;
  char* right = right_ref.data();
  SetLeaf(right, false);
  SetLink(right, items[mid].child);  // leftmost child of the right node
  uint16_t rcount = 0;
  for (size_t i = mid + 1; i < items.size(); ++i) {
    SetInternalEntry(right, rcount, items[i].sep, items[i].child);
    ++rcount;
  }
  SetCount(right, rcount);

  uint16_t lcount = 0;
  for (size_t i = 0; i < mid; ++i) {
    SetInternalEntry(node, lcount, items[i].sep, items[i].child);
    ++lcount;
  }
  SetCount(node, lcount);
  node_ref.MarkDirty();
  SplitResult out;
  out.split = true;
  out.separator = up.key;
  out.right = right_ref.id();
  separator_rid_ = up.rid;
  RETURN_IF_ERROR(right_ref.Release());
  RETURN_IF_ERROR(node_ref.Release());
  return out;
}

Status BPlusTree::Insert(uint64_t key, uint64_t rid) {
  XO_ASSIGN_OR_RETURN(SplitResult split, InsertRecursive(root_, key, rid));
  if (split.split) {
    XO_ASSIGN_OR_RETURN(PageRef page, pool_->Create());
    ++page_count_;
    char* node = page.data();
    SetLeaf(node, false);
    SetCount(node, 1);
    SetLink(node, root_);
    SetInternalEntry(node, 0, EntryKey{split.separator, separator_rid_},
                     split.right);
    const PageId new_root = page.id();
    RETURN_IF_ERROR(page.Release());
    root_ = new_root;
  }
  ++entry_count_;
  return Status::OK();
}

Result<PageId> BPlusTree::FindLeaf(uint64_t key) const {
  EntryKey target{key, 0};
  PageId cur = root_;
  while (true) {
    XO_ASSIGN_OR_RETURN(PageRef node, pool_->Fetch(cur));
    RETURN_IF_ERROR(ValidateBPlusTreeNode(NodeView(node.data())));
    if (IsLeaf(node.data())) {
      RETURN_IF_ERROR(node.Release());
      return cur;
    }
    PageId next = InternalChild(node.data(), ChildIndexFor(node.data(), target));
    RETURN_IF_ERROR(node.Release());
    cur = next;
  }
}

Result<std::vector<uint64_t>> BPlusTree::Find(uint64_t key) const {
  return FindRange(key, key);
}

Result<std::vector<uint64_t>> BPlusTree::FindRange(uint64_t lo,
                                                   uint64_t hi) const {
  std::vector<uint64_t> out;
  XO_ASSIGN_OR_RETURN(PageId leaf, FindLeaf(lo));
  EntryKey target{lo, 0};
  while (leaf != kInvalidPageId) {
    XO_ASSIGN_OR_RETURN(PageRef node_ref, pool_->Fetch(leaf));
    const char* node = node_ref.data();
    RETURN_IF_ERROR(ValidateBPlusTreeNode(NodeView(node)));
    uint16_t count = Count(node);
    size_t i = LeafLowerBound(node, target);
    bool done = false;
    for (; i < count; ++i) {
      EntryKey e = LeafEntry(node, i);
      if (e.key > hi) {
        done = true;
        break;
      }
      out.push_back(e.rid);
    }
    PageId next = Link(node);
    RETURN_IF_ERROR(node_ref.Release());
    if (done) break;
    leaf = next;
    target = EntryKey{0, 0};  // subsequent leaves: take from the start
  }
  return out;
}

Status BPlusTree::Delete(uint64_t key, uint64_t rid) {
  EntryKey target{key, rid};
  PageId cur = root_;
  while (true) {
    XO_ASSIGN_OR_RETURN(PageRef node_ref, pool_->Fetch(cur));
    char* node = node_ref.data();
    RETURN_IF_ERROR(ValidateBPlusTreeNode(NodeView(node)));
    if (!IsLeaf(node)) {
      PageId next = InternalChild(node, ChildIndexFor(node, target));
      RETURN_IF_ERROR(node_ref.Release());
      cur = next;
      continue;
    }
    uint16_t count = Count(node);
    size_t i = LeafLowerBound(node, target);
    if (i < count) {
      EntryKey e = LeafEntry(node, i);
      if (e.key == key && e.rid == rid) {
        RETURN_IF_ERROR(
            ShiftEntries(node, i, i + 1, count - i - 1, kLeafEntryBytes));
        SetCount(node, count - 1);
        node_ref.MarkDirty();
        RETURN_IF_ERROR(node_ref.Release());
        if (entry_count_ > 0) --entry_count_;
        return Status::OK();
      }
    }
    RETURN_IF_ERROR(node_ref.Release());
    return Status::NotFound("entry not in index");
  }
}

Status BPlusTree::CheckNode(PageId node_id, uint64_t lo, uint64_t hi,
                            int depth, int* leaf_depth) const {
  // The pre-PageRef version of this function juggled error precedence by
  // hand (a structural violation outranks the trailing unpin status); the
  // guard's destructor now releases the pin on the violation returns.
  XO_ASSIGN_OR_RETURN(PageRef node_ref, pool_->Fetch(node_id));
  const char* node = node_ref.data();
  RETURN_IF_ERROR(ValidateBPlusTreeNode(NodeView(node)));
  uint16_t count = Count(node);
  if (IsLeaf(node)) {
    if (*leaf_depth == -1) {
      *leaf_depth = depth;
    } else if (*leaf_depth != depth) {
      return Status::Internal("leaves at differing depths");
    }
    for (size_t i = 0; i < count; ++i) {
      EntryKey e = LeafEntry(node, i);
      if (e.key < lo || e.key > hi) {
        return Status::Internal("leaf key outside separator bounds");
      }
      if (i > 0 && e < LeafEntry(node, i - 1)) {
        return Status::Internal("leaf entries out of order");
      }
    }
    return node_ref.Release();
  }
  std::vector<std::pair<PageId, std::pair<uint64_t, uint64_t>>> children;
  uint64_t prev = lo;
  for (size_t i = 0; i < count; ++i) {
    EntryKey sep = InternalSep(node, i);
    if (sep.key < lo || sep.key > hi) {
      return Status::Internal("separator outside bounds");
    }
    if (i > 0 && sep < InternalSep(node, i - 1)) {
      return Status::Internal("separators out of order");
    }
    children.push_back({InternalChild(node, i), {prev, sep.key}});
    prev = sep.key;
  }
  children.push_back({InternalChild(node, count), {prev, hi}});
  RETURN_IF_ERROR(node_ref.Release());
  for (auto& [child, bounds] : children) {
    XO_RETURN_NOT_OK(
        CheckNode(child, bounds.first, bounds.second, depth + 1, leaf_depth));
  }
  return Status::OK();
}

Status BPlusTree::CheckInvariants() const {
  int leaf_depth = -1;
  return CheckNode(root_, 0, UINT64_MAX, 0, &leaf_depth);
}

}  // namespace xorator::ordb
