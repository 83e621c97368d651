#include "ordb/buffer_pool.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstring>
#include <thread>

#include "ordb/health.h"
#include "ordb/exec_context.h"

namespace xorator::ordb {

namespace {

/// One latch shard per this many frames, clamped to
/// [1, BufferPool::kMaxBuckets]. Pools smaller than one full bucket
/// (the fault-injection tests run capacities of 1–8) collapse to a single
/// bucket, which preserves the exact global LRU eviction order those tests
/// assert; production-sized pools (64+ frames) fan out.
size_t BucketCountFor(size_t capacity) {
  const size_t want = capacity / BufferPool::kMinFramesPerBucket;
  return std::clamp<size_t>(want, 1, BufferPool::kMaxBuckets);
}

}  // namespace

BufferPool::BufferPool(Pager* pager, size_t capacity)
    : pager_(pager),
      capacity_(capacity == 0 ? 1 : capacity),
      num_buckets_(BucketCountFor(capacity_)),
      buckets_(std::make_unique<Bucket[]>(num_buckets_)) {
  // Distribute the frame budget across buckets, earlier buckets taking the
  // remainder. Pages hash uniformly over buckets (id % num_buckets_), so a
  // near-even split keeps per-bucket eviction pressure balanced.
  const size_t base = capacity_ / num_buckets_;
  const size_t extra = capacity_ % num_buckets_;
  for (size_t i = 0; i < num_buckets_; ++i) {
    Bucket& b = buckets_[i];
    xo::MutexLock lock(&b.mu);
    b.frames.resize(base + (i < extra ? 1 : 0));
  }
}

BufferPool::~BufferPool() {
  // Quiescence sentinel: every pin is owned by a PageRef, so a non-zero
  // count here means a guard outlived the pool — a lifetime bug the
  // typestate cannot see (it tracks release order, not relative
  // lifetimes). Debug builds fail loudly instead of letting the guard's
  // destructor touch a dead pool.
  assert(PinnedFrameCount() == 0 &&
         "BufferPool destroyed while PageRef guards still hold pins");
}

void BufferPool::set_wal(Wal* wal) {
  for (size_t i = 0; i < num_buckets_; ++i) {
    xo::MutexLock lock(&buckets_[i].mu);
    buckets_[i].wal = wal;
  }
}

void BufferPool::set_health(EngineHealth* health) {
  for (size_t i = 0; i < num_buckets_; ++i) {
    xo::MutexLock lock(&buckets_[i].mu);
    buckets_[i].health = health;
  }
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats out;
  for (size_t i = 0; i < num_buckets_; ++i) {
    const Bucket& b = buckets_[i];
    xo::MutexLock lock(&b.mu);
    out.hits += b.stats.hits;
    out.misses += b.stats.misses;
    out.evictions += b.stats.evictions;
    out.writebacks += b.stats.writebacks;
    out.checksum_failures += b.stats.checksum_failures;
    out.quarantine_hits += b.stats.quarantine_hits;
    out.quarantined_pages += b.quarantined.size();
  }
  {
    xo::MutexLock io(&io_mu_);
    out.retries = io_retries_;
  }
  {
    xo::MutexLock scrub(&scrub_mu_);
    out.scrub_pages_scanned = scrub_pages_scanned_;
    out.scrub_pages_bad = scrub_pages_bad_;
    out.scrub_passes = scrub_passes_;
  }
  return out;
}

bool BufferPool::IsQuarantined(PageId id) const {
  Bucket& b = BucketOf(id);
  xo::MutexLock lock(&b.mu);
  return b.quarantined.count(id) > 0;
}

std::vector<PageId> BufferPool::QuarantinedPages() const {
  std::vector<PageId> out;
  for (size_t i = 0; i < num_buckets_; ++i) {
    Bucket& b = buckets_[i];
    xo::MutexLock lock(&b.mu);
    out.insert(out.end(), b.quarantined.begin(), b.quarantined.end());
  }
  return out;
}

void BufferPool::ClearQuarantine() {
  for (size_t i = 0; i < num_buckets_; ++i) {
    xo::MutexLock lock(&buckets_[i].mu);
    buckets_[i].quarantined.clear();
  }
}

void BufferPool::QuarantineLocked(Bucket& b, PageId id) {
  if (!b.quarantined.insert(id).second) return;
  if (b.health != nullptr) {
    // EngineHealth's mutex is a leaf below the bucket rank, so reporting
    // from under the latch cannot invert the hierarchy.
    b.health->ReportDegraded("page " + std::to_string(id) +
                             " quarantined after a checksum failure");
  }
}

size_t BufferPool::PinnedFrameCount() const {
  size_t pinned = 0;
  for (size_t i = 0; i < num_buckets_; ++i) {
    const Bucket& b = buckets_[i];
    xo::MutexLock lock(&b.mu);
    for (const Frame& f : b.frames) {
      if (f.pin_count > 0) ++pinned;
    }
  }
  return pinned;
}

namespace {

/// Runs `op`, retrying retryable (Status::IsRetryable — transient
/// kUnavailable) failures with exponential backoff. Any other status —
/// including a retryable one once the attempts are exhausted — is returned
/// as-is; degradable failures (IOError/Corruption) are for the caller and
/// the health machine, not the retry loop (see the taxonomy in
/// common/status.h).
template <typename Op>
Status WithRetry(Op&& op, uint64_t* retries) {
  Status s;
  for (int attempt = 0; attempt <= BufferPool::kMaxIoRetries; ++attempt) {
    if (attempt > 0) {
      ++*retries;
      std::this_thread::sleep_for(std::chrono::microseconds(1u << attempt));
    }
    s = op();
    if (!s.IsRetryable()) return s;
  }
  return s;
}

}  // namespace

Status BufferPool::ReadRetry(PageId id, char* buf) {
  // The whole retry loop runs under io_mu_: the Pager is not internally
  // synchronized, and holding the latch across retries keeps the
  // fault-injection PRNG's draw order deterministic per logical operation.
  xo::MutexLock io(&io_mu_);
  return WithRetry([&] { return pager_->Read(id, buf); }, &io_retries_);
}

Status BufferPool::WriteRetry(PageId id, const char* buf) {
  xo::MutexLock io(&io_mu_);
  return WithRetry([&] { return pager_->Write(id, buf); }, &io_retries_);
}

bool BufferPool::WritebackFrozen(const Bucket& b) const {
  // Once the engine latches kReadOnly (or worse) on a journaled database,
  // the pre-image log is no longer trustworthy — the latch fired precisely
  // because a WAL append, sync, or checkpoint commit failed. Overwriting
  // any more on-disk pages could strand state that no rollback can undo,
  // so dirty frames stay resident until TryRecover() rebuilds the stack
  // (DESIGN.md §13). Memory-backed pools have no journal and no rollback
  // contract, so they are never frozen.
  if (b.wal == nullptr || b.health == nullptr) return false;
  const HealthState hs = b.health->state();
  return hs == HealthState::kReadOnly || hs == HealthState::kFailed;
}

Status BufferPool::WriteBack(Bucket& b, Frame& f) {
  if (WritebackFrozen(b)) {
    return Status::Unavailable(
        "engine is not writable; dirty page write-back is disabled until "
        "TryRecover()");
  }
  SetPageChecksum(f.data.get());
  if (b.wal != nullptr && f.page_id < b.wal->checkpoint_page_count() &&
      !b.wal->Logged(f.page_id)) {
    // Write-ahead rule: the page's current on-disk image must be durable
    // in the log before this epoch's first overwrite of it. Wal::mu_ sits
    // below the bucket rank, so logging from under the latch is in order.
    if (b.scratch == nullptr) b.scratch = std::make_unique<char[]>(kPageSize);
    XO_RETURN_NOT_OK(ReadRetry(f.page_id, b.scratch.get()));
    Status logged = b.wal->LogPageImage(f.page_id, b.scratch.get());
    if (!logged.ok()) {
      // Durability is gone: without the pre-image the engine cannot
      // guarantee rollback to the last checkpoint, so writes must stop
      // (DESIGN.md §13). Reads stay safe — nothing was overwritten.
      if (b.health != nullptr) {
        b.health->ReportReadOnly("WAL append failed: " + logged.message());
      }
      return logged;
    }
  }
  Status wrote = WriteRetry(f.page_id, f.data.get());
  if (!wrote.ok()) {
    if (b.health != nullptr && wrote.IsDegradable()) {
      b.health->ReportDegraded("write-back of page " +
                               std::to_string(f.page_id) +
                               " failed: " + wrote.message());
    }
    return wrote;
  }
  ++b.stats.writebacks;
  return Status::OK();
}

Result<size_t> BufferPool::GetVictimFrame(Bucket& b) {
  // While write-back is frozen (read-only engine), dirty frames are as
  // unevictable as pinned ones: reads keep flowing through clean frames.
  const bool frozen = WritebackFrozen(b);
  size_t victim = b.frames.size();
  uint64_t oldest = UINT64_MAX;
  for (size_t i = 0; i < b.frames.size(); ++i) {
    Frame& f = b.frames[i];
    if (f.page_id == kInvalidPageId && f.pin_count == 0) return i;
    if (f.pin_count == 0 && (!frozen || !f.dirty) && f.last_used < oldest) {
      oldest = f.last_used;
      victim = i;
    }
  }
  if (victim == b.frames.size()) {
    if (frozen) {
      return Status::Unavailable(
          "buffer pool exhausted: every unpinned frame is dirty and the "
          "engine is read-only; TryRecover() may re-arm it");
    }
    return Status::Internal("buffer pool exhausted: all frames pinned");
  }
  Frame& f = b.frames[victim];
  if (f.dirty) {
    XO_RETURN_NOT_OK(WriteBack(b, f));
  }
  b.frame_of_page.erase(f.page_id);
  f.page_id = kInvalidPageId;
  f.dirty = false;
  ++b.stats.evictions;
  return victim;
}

Result<char*> BufferPool::FetchPage(PageId id) {
  Bucket& b = BucketOf(id);
  xo::MutexLock lock(&b.mu);
  if (b.quarantined.count(id) > 0) {
    // Containment: the page already failed verification once; repeated
    // fetches fail fast without touching the disk (DESIGN.md §13).
    ++b.stats.quarantine_hits;
    return Status::Corruption("page " + std::to_string(id) +
                              " is quarantined (earlier checksum failure)");
  }
  auto it = b.frame_of_page.find(id);
  if (it != b.frame_of_page.end()) {
    Frame& f = b.frames[it->second];
    ++f.pin_count;
    f.last_used = ++b.clock;
    ++b.stats.hits;
    return f.data.get();
  }
  ++b.stats.misses;
  XO_ASSIGN_OR_RETURN(size_t idx, GetVictimFrame(b));
  Frame& f = b.frames[idx];
  if (f.data == nullptr) f.data = std::make_unique<char[]>(kPageSize);
  XO_RETURN_NOT_OK(ReadRetry(id, f.data.get()));
  if (!VerifyPageChecksum(f.data.get())) {
    ++b.stats.checksum_failures;
    QuarantineLocked(b, id);
    return Status::Corruption("page " + std::to_string(id) +
                              " failed its checksum (torn write or bit rot)");
  }
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.last_used = ++b.clock;
  b.frame_of_page[id] = idx;
  return f.data.get();
}

Result<std::pair<PageId, char*>> BufferPool::NewPage() {
  // Allocation talks to the Pager, so it runs under io_mu_ — and must
  // finish before the bucket latch is taken: io_mu_ ranks below the
  // buckets, and the new page's bucket is unknown until the id exists.
  // The window between allocation and frame insertion is benign — no other
  // thread can name the page until this call returns its id.
  Result<PageId> alloc = [&]() -> Result<PageId> {
    xo::MutexLock io(&io_mu_);
    Result<PageId> r = pager_->Allocate();
    for (int attempt = 1;
         attempt <= kMaxIoRetries && r.status().IsRetryable(); ++attempt) {
      ++io_retries_;
      std::this_thread::sleep_for(std::chrono::microseconds(1u << attempt));
      r = pager_->Allocate();
    }
    return r;
  }();
  XO_ASSIGN_OR_RETURN(PageId id, std::move(alloc));
  Bucket& b = BucketOf(id);
  xo::MutexLock lock(&b.mu);
  XO_ASSIGN_OR_RETURN(size_t idx, GetVictimFrame(b));
  Frame& f = b.frames[idx];
  if (f.data == nullptr) f.data = std::make_unique<char[]>(kPageSize);
  std::memset(f.data.get(), 0, kPageSize);
  f.page_id = id;
  f.pin_count = 1;
  f.dirty = true;
  f.last_used = ++b.clock;
  b.frame_of_page[id] = idx;
  return std::make_pair(id, f.data.get());
}

Status BufferPool::Unpin(PageId id, bool dirty) {
  Bucket& b = BucketOf(id);
  xo::MutexLock lock(&b.mu);
  auto it = b.frame_of_page.find(id);
  if (it == b.frame_of_page.end()) {
    return Status::InvalidArgument("Unpin of non-resident page " +
                                   std::to_string(id));
  }
  Frame& f = b.frames[it->second];
  if (f.pin_count == 0) {
    return Status::InvalidArgument("unbalanced Unpin of page " +
                                   std::to_string(id));
  }
  --f.pin_count;
  f.dirty = f.dirty || dirty;
  return Status::OK();
}

Status BufferPool::FlushAll() {
  // Canonical cross-bucket order: ascending index, one bucket at a time.
  // A checkpoint holds the exclusive statement lock, so no new dirt can
  // appear in an already-flushed bucket while a later one is written.
  for (size_t i = 0; i < num_buckets_; ++i) {
    Bucket& b = buckets_[i];
    xo::MutexLock lock(&b.mu);
    for (Frame& f : b.frames) {
      if (f.page_id != kInvalidPageId && f.dirty) {
        XO_RETURN_NOT_OK(WriteBack(b, f));
        f.dirty = false;
      }
    }
  }
  return Status::OK();
}

Result<ScrubReport> BufferPool::ScrubSlice(uint64_t max_pages) {
  // scrub_mu_ (kBufferPoolMaint) is held for the whole slice: it owns the
  // cursor and the scratch page, and ranks above the bucket latches the
  // slice takes one page at a time.
  xo::MutexLock scrub(&scrub_mu_);
  ScrubReport report;
  PageId total = 0;
  {
    // page_count() is Pager state; like all pager access it needs io_mu_.
    xo::MutexLock io(&io_mu_);
    total = pager_->page_count();
  }
  if (total == 0 || max_pages == 0) {
    report.cursor = scrub_cursor_;
    report.wrapped = total == 0;
    return report;
  }
  if (scrub_cursor_ >= total) scrub_cursor_ = 0;
  if (scrub_scratch_ == nullptr) {
    scrub_scratch_ = std::make_unique<char[]>(kPageSize);
  }
  // Guard pacing: a PRAGMA scrub issued with a deadline or cancel token
  // unwinds between pages like any other scan (DESIGN.md §12/§13).
  QueryGuard* guard = ExecContext::CurrentQueryGuard();
  for (uint64_t i = 0; i < max_pages; ++i) {
    if (guard != nullptr) RETURN_IF_ERROR(guard->CheckPoint());
    const PageId id = scrub_cursor_;
    ++report.pages_scanned;
    ++scrub_pages_scanned_;
    {
      // The page's bucket latch is held across the disk read: it excludes
      // a concurrent write-back of this very page, which could otherwise
      // present a torn half-written image to the verifier.
      Bucket& b = BucketOf(id);
      xo::MutexLock lock(&b.mu);
      if (b.quarantined.count(id) > 0) {
        // Already contained; no point re-reading until recovery clears it.
        ++report.pages_bad;
      } else if (b.frame_of_page.count(id) > 0) {
        ++report.pages_resident;
      } else {
        Status read = ReadRetry(id, scrub_scratch_.get());
        if (read.IsRetryable()) {
          // A transient-fault storm outlasted the bounded retries; surface
          // it so the caller can re-issue the slice later — the cursor has
          // not moved past this page.
          return read;
        }
        if (!read.ok() || !VerifyPageChecksum(scrub_scratch_.get())) {
          // A non-OK read (degradable IOError) and a bad checksum get the
          // same response: contain the page and keep scrubbing.
          QuarantineLocked(b, id);
          ++report.pages_bad;
          ++scrub_pages_bad_;
        } else {
          ++report.pages_verified;
        }
      }
    }
    ++scrub_cursor_;
    if (scrub_cursor_ >= total) {
      scrub_cursor_ = 0;
      report.wrapped = true;
      ++scrub_passes_;
      break;  // a slice ends at the file boundary — one pass at a time
    }
  }
  report.cursor = scrub_cursor_;
  return report;
}

Status BufferPool::ReadForSalvage(PageId id, char* buf) {
  Bucket& b = BucketOf(id);
  xo::MutexLock lock(&b.mu);
  auto it = b.frame_of_page.find(id);
  if (it != b.frame_of_page.end()) {
    // Unreachable for quarantined pages (they are never resident), but a
    // salvage of a healthy page should still see the canonical bytes.
    std::memcpy(buf, b.frames[it->second].data.get(), kPageSize);
    return Status::OK();
  }
  return ReadRetry(id, buf);
}

}  // namespace xorator::ordb
