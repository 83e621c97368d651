#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>

#include "ordb/buffer_pool.h"
#include "ordb/heap_file.h"
#include "ordb/page.h"
#include "ordb/pager.h"
#include "ordb/wal.h"

namespace xorator::ordb {
namespace {

TEST(SlottedPageTest, InsertAndGet) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  auto s1 = page.Insert("hello");
  auto s2 = page.Insert("world!");
  ASSERT_TRUE(s1.ok());
  ASSERT_TRUE(s2.ok());
  EXPECT_EQ(*page.Get(*s1), "hello");
  EXPECT_EQ(*page.Get(*s2), "world!");
  EXPECT_EQ(page.slot_count(), 2);
}

TEST(SlottedPageTest, DeleteTombstones) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  auto slot = page.Insert("x");
  ASSERT_TRUE(slot.ok());
  ASSERT_TRUE(page.Delete(*slot).ok());
  EXPECT_FALSE(page.Get(*slot).ok());
  EXPECT_FALSE(page.Delete(*slot).ok());
  EXPECT_FALSE(page.Get(99).ok());
}

TEST(SlottedPageTest, FillsUntilFull) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  std::string record(100, 'r');
  int inserted = 0;
  while (page.Fits(record.size())) {
    ASSERT_TRUE(page.Insert(record).ok());
    ++inserted;
  }
  // 100-byte records + 4-byte slots into ~8KB.
  EXPECT_GT(inserted, 70);
  EXPECT_FALSE(page.Insert(record).ok());
  // All records still readable.
  for (int i = 0; i < inserted; ++i) {
    EXPECT_EQ(*page.Get(static_cast<uint16_t>(i)), record);
  }
}

TEST(SlottedPageTest, NextPageLink) {
  char buf[kPageSize];
  SlottedPage page(buf);
  page.Init();
  EXPECT_EQ(page.next_page(), kInvalidPageId);
  page.set_next_page(42);
  EXPECT_EQ(page.next_page(), 42u);
}

class PagerTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    if (GetParam()) {
      path_ = ::testing::TempDir() + "/xorator_pager_test.db";
      std::remove(path_.c_str());
      auto pager = FilePager::Open(path_);
      ASSERT_TRUE(pager.ok()) << pager.status().ToString();
      pager_ = std::move(*pager);
    } else {
      pager_ = std::make_unique<MemoryPager>();
    }
  }
  void TearDown() override {
    pager_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  std::string path_;
  std::unique_ptr<Pager> pager_;
};

TEST_P(PagerTest, AllocateReadWrite) {
  auto p0 = pager_->Allocate();
  auto p1 = pager_->Allocate();
  ASSERT_TRUE(p0.ok());
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p0, 0u);
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(pager_->page_count(), 2u);

  char buf[kPageSize];
  std::memset(buf, 'a', kPageSize);
  ASSERT_TRUE(pager_->Write(*p1, buf).ok());
  char read_buf[kPageSize];
  ASSERT_TRUE(pager_->Read(*p1, read_buf).ok());
  EXPECT_EQ(std::memcmp(buf, read_buf, kPageSize), 0);
  // Fresh pages come back zeroed.
  ASSERT_TRUE(pager_->Read(*p0, read_buf).ok());
  EXPECT_EQ(read_buf[0], 0);
  EXPECT_EQ(read_buf[kPageSize - 1], 0);
}

TEST_P(PagerTest, BadPageIdRejected) {
  char buf[kPageSize];
  EXPECT_FALSE(pager_->Read(5, buf).ok());
  EXPECT_FALSE(pager_->Write(5, buf).ok());
}

INSTANTIATE_TEST_SUITE_P(MemoryAndFile, PagerTest,
                         ::testing::Values(false, true));

TEST(FilePagerTest, PersistsAcrossReopen) {
  std::string path = ::testing::TempDir() + "/xorator_persist.db";
  std::remove(path.c_str());
  {
    auto pager = FilePager::Open(path);
    ASSERT_TRUE(pager.ok());
    auto id = (*pager)->Allocate();
    ASSERT_TRUE(id.ok());
    char buf[kPageSize];
    std::memset(buf, 'z', kPageSize);
    ASSERT_TRUE((*pager)->Write(*id, buf).ok());
  }
  auto reopened = FilePager::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_count(), 1u);
  char buf[kPageSize];
  ASSERT_TRUE((*reopened)->Read(0, buf).ok());
  EXPECT_EQ(buf[100], 'z');
  std::remove(path.c_str());
}

TEST(BufferPoolTest, HitsAndEvictions) {
  MemoryPager pager;
  BufferPool pool(&pager, 2);
  auto p0 = pool.Create();
  ASSERT_TRUE(p0.ok());
  const PageId id0 = p0->id();
  // Poke a payload byte; the first kPageHeaderBytes belong to the checksum
  // header and are overwritten on write-back. Create() guards start dirty.
  p0->data()[100] = 'x';
  ASSERT_TRUE(p0->Release().ok());
  auto p1 = pool.Create();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p1->Release().ok());
  auto p2 = pool.Create();  // evicts p0 (LRU), which is dirty
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(p2->Release().ok());
  EXPECT_GE(pool.stats().evictions, 1u);
  EXPECT_GE(pool.stats().writebacks, 1u);
  // Fetching p0 again reads the written-back content.
  auto fetched = pool.Fetch(id0);
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(fetched->data()[100], 'x');
  ASSERT_TRUE(fetched->Release().ok());
  EXPECT_GE(pool.stats().misses, 1u);
}

TEST(PageChecksumTest, StampVerifyAndDetectFlip) {
  char buf[kPageSize];
  std::memset(buf, 0, kPageSize);
  // A fresh all-zero page verifies (FilePager::Allocate produces these).
  EXPECT_TRUE(VerifyPageChecksum(buf));
  buf[100] = 'a';
  EXPECT_FALSE(VerifyPageChecksum(buf));  // payload set, checksum not stamped
  SetPageChecksum(buf);
  EXPECT_TRUE(VerifyPageChecksum(buf));
  buf[2000] ^= 0x08;  // single bit flip
  EXPECT_FALSE(VerifyPageChecksum(buf));
  buf[2000] ^= 0x08;
  EXPECT_TRUE(VerifyPageChecksum(buf));
}

// Pins the on-disk checksum bytes: a kernel change to Crc32 must leave every
// stored page and WAL record verifiable. Both constants were computed by the
// original bytewise table loop.
TEST(PageChecksumTest, GoldenPageAndWalRecordChecksums) {
  constexpr uint32_t kGoldenPageChecksum = 0xB78A6E74u;
  constexpr uint32_t kGoldenWalRecordCrc = 0x679E1F8Du;
  char page[kPageSize];
  for (size_t i = 0; i < kPageSize; ++i) {
    page[i] = static_cast<char>((i * 31 + 7) & 0xFF);
  }
  EXPECT_EQ(ComputePageChecksum(page), kGoldenPageChecksum);
  char stamped[kPageSize];
  std::memcpy(stamped, page, kPageSize);
  SetPageChecksum(stamped);
  uint32_t stored = 0;
  std::memcpy(&stored, stamped, sizeof(stored));
  EXPECT_EQ(stored, kGoldenPageChecksum);
  EXPECT_TRUE(VerifyPageChecksum(stamped));

  // The WAL record for page 5 carries the CRC of its id and full image.
  const std::string path = ::testing::TempDir() + "/xorator_golden.wal";
  {
    auto wal = Wal::Open(path, 6);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->LogPageImage(5, page).ok());
  }
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_EQ(bytes.size(), kWalHeaderBytes + kWalRecordHeaderBytes + kPageSize);
  auto rec = ParseWalRecordHeader(
      std::string_view(bytes).substr(kWalHeaderBytes, kWalRecordHeaderBytes));
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->page_id, 5u);
  EXPECT_EQ(rec->crc, kGoldenWalRecordCrc);
  std::remove(path.c_str());
}

TEST(BufferPoolTest, ChecksumFailureOnFetchIsCorruption) {
  MemoryPager pager;
  BufferPool pool(&pager, 2);
  auto p0 = pool.Create();
  ASSERT_TRUE(p0.ok());
  const PageId id0 = p0->id();
  p0->data()[500] = 'v';
  ASSERT_TRUE(p0->Release().ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  // Corrupt the stored page behind the pool's back, then force a re-read.
  char raw[kPageSize];
  ASSERT_TRUE(pager.Read(id0, raw).ok());
  raw[500] ^= 0x01;
  ASSERT_TRUE(pager.Write(id0, raw).ok());
  auto p1 = pool.Create();
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p1->Release().ok());
  auto p2 = pool.Create();  // evicts p0's frame
  ASSERT_TRUE(p2.ok());
  ASSERT_TRUE(p2->Release().ok());
  auto fetched = pool.Fetch(id0);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kCorruption);
  EXPECT_GE(pool.stats().checksum_failures, 1u);
}

TEST(FilePagerTest, RejectsNonPageMultipleFile) {
  std::string path = ::testing::TempDir() + "/xorator_torn.db";
  std::remove(path.c_str());
  {
    std::ofstream f(path, std::ios::binary);
    std::string partial(kPageSize + 100, 'x');  // one page plus a torn tail
    f.write(partial.data(), static_cast<std::streamsize>(partial.size()));
  }
  auto pager = FilePager::Open(path);
  ASSERT_FALSE(pager.ok());
  EXPECT_EQ(pager.status().code(), StatusCode::kIOError);
  EXPECT_NE(pager.status().message().find("multiple"), std::string::npos);
  std::remove(path.c_str());
}

TEST(FilePagerTest, ShortReadNamesThePage) {
  std::string path = ::testing::TempDir() + "/xorator_short.db";
  std::remove(path.c_str());
  auto pager = FilePager::Open(path);
  ASSERT_TRUE(pager.ok());
  ASSERT_TRUE((*pager)->Allocate().ok());
  ASSERT_TRUE((*pager)->Allocate().ok());
  ASSERT_TRUE((*pager)->Flush().ok());
  // Truncate page 1 away behind the pager's back: reading it now comes up
  // short and must name the page, not crash or return stale bytes.
  std::filesystem::resize_file(path, kPageSize);
  char buf[kPageSize];
  Status s = (*pager)->Read(1, buf);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("page 1"), std::string::npos);
  std::remove(path.c_str());
}

TEST(BufferPoolTest, AllPinnedFails) {
  MemoryPager pager;
  BufferPool pool(&pager, 1);
  auto p0 = pool.Create();
  ASSERT_TRUE(p0.ok());
  // p0's guard still holds its pin; no frame available.
  EXPECT_FALSE(pool.Create().ok());
  ASSERT_TRUE(p0->Release().ok());
  EXPECT_TRUE(pool.Create().ok());
}

TEST(BufferPoolTest, FlushAllWritesDirtyFrames) {
  MemoryPager pager;
  BufferPool pool(&pager, 4);
  auto p = pool.Create();
  ASSERT_TRUE(p.ok());
  const PageId id = p->id();
  p->data()[7] = 'q';
  ASSERT_TRUE(p->Release().ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  char buf[kPageSize];
  ASSERT_TRUE(pager.Read(id, buf).ok());
  EXPECT_EQ(buf[7], 'q');
}

TEST(PageRefTest, MoveTransfersOwnershipWithoutTouchingThePin) {
  MemoryPager pager;
  BufferPool pool(&pager, 4);
  auto created = pool.Create();
  ASSERT_TRUE(created.ok());
  PageRef a = std::move(*created);
  ASSERT_TRUE(a.holds());
  const PageId id = a.id();
  EXPECT_EQ(pool.PinnedFrameCount(), 1u);
  PageRef b = std::move(a);
  // Still exactly one pin, now owned by b alone.
  EXPECT_EQ(pool.PinnedFrameCount(), 1u);
  ASSERT_TRUE(b.holds());
  EXPECT_EQ(b.id(), id);
  ASSERT_TRUE(b.Release().ok());
  EXPECT_EQ(pool.PinnedFrameCount(), 0u);
}

TEST(PageRefTest, MoveAssignmentReleasesTheOverwrittenPin) {
  MemoryPager pager;
  BufferPool pool(&pager, 4);
  auto first = pool.Create();
  ASSERT_TRUE(first.ok());
  auto second = pool.Create();
  ASSERT_TRUE(second.ok());
  PageRef a = std::move(*first);
  PageRef b = std::move(*second);
  const PageId kept = b.id();
  EXPECT_EQ(pool.PinnedFrameCount(), 2u);
  a = std::move(b);
  // a's old pin was dropped by the assignment; b's pin moved into a.
  EXPECT_EQ(pool.PinnedFrameCount(), 1u);
  EXPECT_EQ(a.id(), kept);
  ASSERT_TRUE(a.Release().ok());
  EXPECT_EQ(pool.PinnedFrameCount(), 0u);
}

TEST(PageRefTest, DirtyBitPropagation) {
  MemoryPager pager;
  BufferPool pool(&pager, 4);
  auto created = pool.Create();
  ASSERT_TRUE(created.ok());
  const PageId id = created->id();
  ASSERT_TRUE(created->Release().ok());
  ASSERT_TRUE(pool.FlushAll().ok());

  // Released clean (no MarkDirty): the in-memory poke must not reach the
  // pager on the next flush.
  auto clean = pool.Fetch(id);
  ASSERT_TRUE(clean.ok());
  clean->data()[64] = 'c';
  ASSERT_TRUE(clean->Release().ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  char buf[kPageSize];
  ASSERT_TRUE(pager.Read(id, buf).ok());
  EXPECT_EQ(buf[64], 0);

  // Released after MarkDirty: the write-back happens.
  auto dirty = pool.Fetch(id);
  ASSERT_TRUE(dirty.ok());
  dirty->data()[64] = 'd';
  dirty->MarkDirty();
  ASSERT_TRUE(dirty->Release().ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  ASSERT_TRUE(pager.Read(id, buf).ok());
  EXPECT_EQ(buf[64], 'd');
}

TEST(PageRefTest, ReleaseSurfacesTheUnpinStatusAndInertsTheGuard) {
  MemoryPager pager;
  BufferPool pool(&pager, 4);
  auto created = pool.Create();
  ASSERT_TRUE(created.ok());
  PageRef ref = std::move(*created);
  EXPECT_TRUE(ref.Release().ok());
  // The guard holds nothing now; its destructor must not unpin again (a
  // second Unpin would underflow the frame's pin count).
  EXPECT_FALSE(ref.holds());
  EXPECT_EQ(pool.PinnedFrameCount(), 0u);
}

#ifndef NDEBUG
TEST(BufferPoolDeathTest, LeakedPinTripsTheSentinel) {
  // `leaked` is declared before the pool so the guard outlives it — the
  // lifetime bug the destructor sentinel exists to catch.
  EXPECT_DEATH(
      {
        std::optional<PageRef> leaked;
        MemoryPager pager;
        BufferPool pool(&pager, 4);
        auto created = pool.Create();
        if (created.ok()) leaked.emplace(std::move(*created));
      },
      "PinnedFrameCount");
}
#endif

class HeapFileTest : public ::testing::Test {
 protected:
  HeapFileTest() : pool_(&pager_, 64) {}

  MemoryPager pager_;
  BufferPool pool_;
};

TEST_F(HeapFileTest, InsertGetScan) {
  auto file = HeapFile::Create(&pool_);
  ASSERT_TRUE(file.ok());
  std::vector<Rid> rids;
  for (int i = 0; i < 100; ++i) {
    auto rid = file->Insert("record-" + std::to_string(i));
    ASSERT_TRUE(rid.ok());
    rids.push_back(*rid);
  }
  EXPECT_EQ(file->record_count(), 100u);
  EXPECT_EQ(*file->Get(rids[42]), "record-42");

  auto scanner = file->Scan();
  Rid rid;
  std::string record;
  int count = 0;
  while (true) {
    auto ok = scanner.Next(&rid, &record);
    ASSERT_TRUE(ok.ok());
    if (!*ok) break;
    EXPECT_EQ(record, "record-" + std::to_string(count));
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST_F(HeapFileTest, SpansMultiplePages) {
  auto file = HeapFile::Create(&pool_);
  ASSERT_TRUE(file.ok());
  std::string record(1000, 'p');
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(file->Insert(record).ok());
  }
  EXPECT_GT(file->page_count(), 5u);
  int scanned = 0;
  auto scanner = file->Scan();
  Rid rid;
  std::string r;
  while (*scanner.Next(&rid, &r)) {
    EXPECT_EQ(r, record);
    ++scanned;
  }
  EXPECT_EQ(scanned, 50);
}

TEST_F(HeapFileTest, OverflowRecords) {
  auto file = HeapFile::Create(&pool_);
  ASSERT_TRUE(file.ok());
  // A record much larger than one page (a large XADT fragment).
  std::string big(100000, 'x');
  big += "tail-marker";
  auto rid = file->Insert(big);
  ASSERT_TRUE(rid.ok());
  auto back = file->Get(*rid);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, big);
  // Overflow pages are accounted for in page_count.
  EXPECT_GT(file->page_count(), 12u);
  // Scanning also resolves the overflow record.
  auto scanner = file->Scan();
  Rid r;
  std::string rec;
  ASSERT_TRUE(*scanner.Next(&r, &rec));
  EXPECT_EQ(rec, big);
}

TEST_F(HeapFileTest, DeleteSkippedByScan) {
  auto file = HeapFile::Create(&pool_);
  ASSERT_TRUE(file.ok());
  auto r1 = file->Insert("keep");
  auto r2 = file->Insert("drop");
  auto r3 = file->Insert("keep2");
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  ASSERT_TRUE(r3.ok());
  ASSERT_TRUE(file->Delete(*r2).ok());
  EXPECT_FALSE(file->Get(*r2).ok());
  EXPECT_EQ(file->record_count(), 2u);
  std::vector<std::string> seen;
  auto scanner = file->Scan();
  Rid rid;
  std::string rec;
  while (*scanner.Next(&rid, &rec)) seen.push_back(rec);
  EXPECT_EQ(seen, (std::vector<std::string>{"keep", "keep2"}));
}

TEST(RidTest, EncodeDecode) {
  Rid rid{12345, 678};
  Rid decoded = Rid::Decode(rid.Encode());
  EXPECT_EQ(decoded, rid);
}

}  // namespace
}  // namespace xorator::ordb
