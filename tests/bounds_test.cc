// Adversarial bounds tests (DESIGN.md section 16): every on-disk length,
// offset, and count is attacker-controlled bytes, and each test here hands
// a decoder input crafted to wrap, truncate, or escape its buffer. The
// contract under test is uniform: the decoder fails closed with
// kCorruption (never a crash, a wild read, or a silent wrap), and every
// rejection drains its buffer-pool pins (PinnedFrameCount() == 0) so a
// corrupt page cannot wedge eviction.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>

#include "common/safe_math.h"
#include "common/span.h"
#include "common/status.h"
#include "common/varint.h"
#include "ordb/bptree.h"
#include "ordb/buffer_pool.h"
#include "ordb/heap_file.h"
#include "ordb/page.h"
#include "ordb/pager.h"
#include "ordb/row_codec.h"
#include "ordb/tuple.h"
#include "ordb/wal.h"

namespace xorator {
namespace {

using ordb::BPlusTree;
using ordb::BufferPool;
using ordb::HeapFile;
using ordb::kPageHeaderBytes;
using ordb::kPageSize;
using ordb::kWalHeaderBytes;
using ordb::kWalRecordHeaderBytes;
using ordb::MemoryPager;
using ordb::ParseWalHeader;
using ordb::ParseWalRecordHeader;
using ordb::RowView;
using ordb::SlottedPage;
using ordb::TableSchema;
using ordb::TypeId;
using ordb::ValidateBPlusTreeNode;

// ---------------------------------------------------------------- safe_math

TEST(SafeMathBounds, CheckedArithmeticFailsClosed) {
  const uint64_t big = std::numeric_limits<uint64_t>::max();
  auto sum = xo::CheckedAdd(big, uint64_t{1});
  ASSERT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kCorruption);
  auto diff = xo::CheckedSub(uint64_t{0}, uint64_t{1});
  ASSERT_FALSE(diff.ok());
  EXPECT_EQ(diff.status().code(), StatusCode::kCorruption);
  auto prod = xo::CheckedMul(big, uint64_t{2});
  ASSERT_FALSE(prod.ok());
  EXPECT_EQ(prod.status().code(), StatusCode::kCorruption);
  // In-range operations pass values through untouched.
  EXPECT_EQ(*xo::CheckedAdd<uint64_t>(40, 2), 42u);
}

TEST(SafeMathBounds, CheckedCastRejectsUnrepresentable) {
  auto narrowed = xo::checked_cast<uint32_t>(uint64_t{1} << 40);
  ASSERT_FALSE(narrowed.ok());
  EXPECT_EQ(narrowed.status().code(), StatusCode::kInvalidArgument);
  auto negative = xo::checked_cast<uint32_t>(int64_t{-1});
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(*xo::checked_cast<uint32_t>(int64_t{7}), 7u);
  EXPECT_TRUE(xo::FitsIn<uint16_t>(65535));
  EXPECT_FALSE(xo::FitsIn<uint16_t>(65536));
}

TEST(SafeMathBounds, WrapHelpersWrap) {
  const uint64_t big = std::numeric_limits<uint64_t>::max();
  EXPECT_EQ(xo::WrapAdd(big, uint64_t{2}), 1u);
  EXPECT_EQ(xo::WrapSub(uint64_t{0}, uint64_t{1}), big);
  EXPECT_EQ(xo::WrapMul(uint64_t{1} << 63, uint64_t{2}), 0u);
}

// ------------------------------------------------------- span/BoundedReader

TEST(SpanBounds, SubspanAndViewBytesRejectWrappingRanges) {
  const std::string buf(16, 'x');
  const xo::ByteSpan span(buf.data(), buf.size());
  // off + len would wrap a naive `off + len <= size` check.
  auto wrapped =
      xo::ViewBytes(span, 8, std::numeric_limits<size_t>::max() - 4);
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), StatusCode::kCorruption);
  EXPECT_FALSE(span.Subspan(17, 0).ok());
  EXPECT_TRUE(span.Subspan(16, 0).ok());  // empty tail is fine
  auto tail = xo::ViewBytes(span, 12, 4);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, "xxxx");
}

TEST(BoundedReaderBounds, TruncatedVarint) {
  // Continuation bit set on the last byte: the varint promises more input
  // than exists.
  const std::string bytes("\x80\x80", 2);
  size_t pos = 0;
  auto v = GetVarint(bytes, &pos);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(pos, 0u);  // cursor unchanged on failure
}

TEST(BoundedReaderBounds, OverlongVarint) {
  // 10 continuation bytes shift past bit 63.
  const std::string bytes(10, '\x80');
  size_t pos = 0;
  auto v = GetVarint(bytes, &pos);
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kCorruption);
}

TEST(BoundedReaderBounds, ReadsNeverAdvancePastEnd) {
  const std::string bytes("abcd", 4);
  xo::BoundedReader reader(bytes);
  EXPECT_FALSE(reader.ReadFixed<uint64_t>().ok());
  EXPECT_FALSE(reader.Skip(5).ok());
  EXPECT_FALSE(reader.SeekTo(5).ok());
  ASSERT_TRUE(reader.Skip(4).ok());
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_FALSE(reader.ReadBytes(1).ok());
}

// -------------------------------------------------------------- row codec

TEST(RowCodecBounds, StringLengthOverflowingRecord) {
  TableSchema schema;
  schema.columns.push_back({"s", TypeId::kVarchar});
  // Null bitmap (nothing null), then a length prefix far past uint32.
  std::string record("\x00", 1);
  PutVarint(&record, uint64_t{1} << 40);
  auto view = RowView::Parse(schema, record);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kCorruption);
}

TEST(RowCodecBounds, RecordShorterThanFixedColumns) {
  TableSchema schema;
  schema.columns.push_back({"i", TypeId::kInteger});
  const std::string record("\x00\x01\x02", 3);  // bitmap + 2 of 8 bytes
  auto view = RowView::Parse(schema, record);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kCorruption);
}

// ------------------------------------------------------------ slotted page

TEST(SlottedPageBounds, SlotOffsetPastPageEnd) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  auto slot = page.Insert("victim");
  ASSERT_TRUE(slot.ok());
  // Corrupt the slot entry: offset near the end, length crossing it.
  constexpr size_t kSlotDirectory = kPageHeaderBytes + 8;
  xo::MutableByteSpan frame(buf, kPageSize);
  ASSERT_TRUE(xo::StoreU16(frame, kSlotDirectory, kPageSize - 4).ok());
  ASSERT_TRUE(xo::StoreU16(frame, kSlotDirectory + 2, 64).ok());
  auto rec = page.Get(*slot);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kCorruption);
}

TEST(SlottedPageBounds, SlotOffsetInsideHeader) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  auto slot = page.Insert("victim");
  ASSERT_TRUE(slot.ok());
  constexpr size_t kSlotDirectory = kPageHeaderBytes + 8;
  xo::MutableByteSpan frame(buf, kPageSize);
  ASSERT_TRUE(xo::StoreU16(frame, kSlotDirectory, 2).ok());
  auto rec = page.Get(*slot);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kCorruption);
}

TEST(SlottedPageBounds, CorruptSlotCountCannotEscapeDirectory) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  // Claim more slots than the whole page could hold a directory for: the
  // directory read for a high slot lands past the 8 KB frame and must be
  // rejected by the checked load, not performed.
  xo::MutableByteSpan frame(buf, kPageSize);
  ASSERT_TRUE(xo::StoreU16(frame, kPageHeaderBytes, 0xFFFF).ok());
  auto rec = page.Get(3000);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.status().code(), StatusCode::kCorruption);
}

// ------------------------------------------------------------- B+-tree

TEST(BPlusTreeBounds, ValidatorRejectsCorruptNodes) {
  std::string node(kPageSize, '\0');
  EXPECT_TRUE(ValidateBPlusTreeNode(node).ok());  // empty leaf
  // Wrong size.
  auto short_node = ValidateBPlusTreeNode(std::string_view(node).substr(1));
  EXPECT_EQ(short_node.code(), StatusCode::kCorruption);
  // Unknown type byte.
  node[kPageHeaderBytes] = 7;
  EXPECT_EQ(ValidateBPlusTreeNode(node).code(), StatusCode::kCorruption);
  // Leaf claiming more entries than a page holds.
  node[kPageHeaderBytes] = 0;
  xo::MutableByteSpan frame(node.data(), node.size());
  ASSERT_TRUE(xo::StoreU16(frame, kPageHeaderBytes + 2, 0xFFFF).ok());
  EXPECT_EQ(ValidateBPlusTreeNode(node).code(), StatusCode::kCorruption);
}

TEST(BPlusTreeBounds, CorruptCountFailsClosedAndDrainsPins) {
  MemoryPager pager;
  BufferPool pool(&pager, 64);
  auto tree = BPlusTree::Create(&pool);
  ASSERT_TRUE(tree.ok());
  for (uint64_t k = 0; k < 100; ++k) {
    ASSERT_TRUE(tree->Insert(k, k * 10).ok());
  }
  {
    auto root = pool.Fetch(tree->root());
    ASSERT_TRUE(root.ok());
    xo::MutableByteSpan frame(root->data(), kPageSize);
    ASSERT_TRUE(xo::StoreU16(frame, kPageHeaderBytes + 2, 0xFFFF).ok());
    root->MarkDirty();
    ASSERT_TRUE(root->Release().ok());
  }
  auto found = tree->Find(42);
  ASSERT_FALSE(found.ok());
  EXPECT_EQ(found.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(pool.PinnedFrameCount(), 0u);
  EXPECT_EQ(tree->Insert(1000, 1).code(), StatusCode::kCorruption);
  EXPECT_EQ(pool.PinnedFrameCount(), 0u);
  auto range = tree->FindRange(0, 99);
  EXPECT_EQ(range.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(pool.PinnedFrameCount(), 0u);
}

// ------------------------------------------------------------------- WAL

TEST(WalBounds, HeaderParsing) {
  // Too short.
  EXPECT_EQ(ParseWalHeader("short").status().code(), StatusCode::kCorruption);
  // Bad magic.
  const std::string zeros(kWalHeaderBytes, '\0');
  EXPECT_EQ(ParseWalHeader(zeros).status().code(), StatusCode::kCorruption);
  // Good magic/version but a page count that cannot fit a PageId: the
  // would-be `pages * kPageSize` must be refused before any allocation.
  std::string huge;
  xo::AppendU32(&huge, 0x4C415758u);
  xo::AppendU32(&huge, 1);
  xo::AppendU64(&huge, uint64_t{1} << 40);
  auto parsed = ParseWalHeader(huge);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kCorruption);
  // A sane header parses.
  std::string good;
  xo::AppendU32(&good, 0x4C415758u);
  xo::AppendU32(&good, 1);
  xo::AppendU64(&good, 3);
  auto ok_header = ParseWalHeader(good);
  ASSERT_TRUE(ok_header.ok());
  EXPECT_EQ(ok_header->checkpoint_page_count, 3u);
}

TEST(WalBounds, RecordHeaderParsing) {
  const std::string zeros(kWalRecordHeaderBytes, '\0');
  EXPECT_EQ(ParseWalRecordHeader(zeros).status().code(),
            StatusCode::kCorruption);
  std::string good;
  xo::AppendU32(&good, 0x47504D49u);
  xo::AppendU32(&good, 7);
  xo::AppendU32(&good, 0xDEADBEEFu);
  auto rec = ParseWalRecordHeader(good);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->page_id, 7u);
  EXPECT_EQ(rec->crc, 0xDEADBEEFu);
}

TEST(WalBounds, RecoverRejectsCorruptJournal) {
  const std::string dir = ::testing::TempDir();
  const std::string db_path = dir + "/bounds_wal_test.db";
  const std::string wal_path = dir + "/bounds_wal_test.wal";
  std::remove(db_path.c_str());
  std::remove(wal_path.c_str());
  {
    std::ofstream wal(wal_path, std::ios::binary);
    const std::string garbage(kWalHeaderBytes, '\x5A');
    wal.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
  }
  auto stats = ordb::RecoverFromWal(db_path, wal_path);
  ASSERT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kCorruption);
  std::remove(wal_path.c_str());
}

// ------------------------------------------------------- heap overflow

TEST(HeapFileBounds, OverflowStubWithHugeTotalFailsClosed) {
  MemoryPager pager;
  BufferPool pool(&pager, 64);
  auto heap = HeapFile::Create(&pool);
  ASSERT_TRUE(heap.ok());
  // Large enough to spill to an overflow chain.
  const std::string record(3 * kPageSize, 'r');
  auto rid = heap->Insert(record);
  ASSERT_TRUE(rid.ok());
  ASSERT_EQ(*heap->Get(*rid), record);
  // Corrupt the stub's total-length field (marker byte, head u32, then
  // total u64). A naive reader would reserve() petabytes or loop the
  // chain forever; the bounded reader must fail closed instead.
  {
    auto ref = pool.Fetch(rid->page_id);
    ASSERT_TRUE(ref.ok());
    SlottedPage page(ref->data());
    auto stub = page.Get(rid->slot);
    ASSERT_TRUE(stub.ok());
    const size_t stub_off = static_cast<size_t>(stub->data() - ref->data());
    xo::MutableByteSpan frame(ref->data(), kPageSize);
    ASSERT_TRUE(
        xo::StoreU64(frame, stub_off + 1 + 4, uint64_t{1} << 50).ok());
    ref->MarkDirty();
    ASSERT_TRUE(ref->Release().ok());
  }
  auto got = heap->Get(*rid);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(pool.PinnedFrameCount(), 0u);
}

TEST(HeapFileBounds, OverflowChunkLengthEscapingPageFailsClosed) {
  MemoryPager pager;
  BufferPool pool(&pager, 64);
  auto heap = HeapFile::Create(&pool);
  ASSERT_TRUE(heap.ok());
  const std::string record(3 * kPageSize, 'q');
  auto rid = heap->Insert(record);
  ASSERT_TRUE(rid.ok());
  // Find the chain head from the stub, then corrupt that overflow page's
  // chunk length so it crosses the page boundary.
  uint32_t head = 0;
  {
    auto ref = pool.Fetch(rid->page_id);
    ASSERT_TRUE(ref.ok());
    SlottedPage page(ref->data());
    auto stub = page.Get(rid->slot);
    ASSERT_TRUE(stub.ok());
    xo::BoundedReader reader(*stub);
    ASSERT_TRUE(reader.Skip(1).ok());  // overflow marker byte
    auto parsed_head = reader.ReadFixed<uint32_t>();
    ASSERT_TRUE(parsed_head.ok());
    head = *parsed_head;
    ASSERT_TRUE(ref->Release().ok());
  }
  {
    auto ref = pool.Fetch(head);
    ASSERT_TRUE(ref.ok());
    xo::MutableByteSpan frame(ref->data(), kPageSize);
    ASSERT_TRUE(xo::StoreU32(frame, kPageHeaderBytes + 4, 0xFFFFFFF0u).ok());
    ref->MarkDirty();
    ASSERT_TRUE(ref->Release().ok());
  }
  auto got = heap->Get(*rid);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
  EXPECT_EQ(pool.PinnedFrameCount(), 0u);
}

}  // namespace
}  // namespace xorator
