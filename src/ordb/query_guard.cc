#include "ordb/query_guard.h"

namespace xorator::ordb {

namespace {
thread_local QueryGuard* g_current_guard = nullptr;
}  // namespace

QueryGuard::QueryGuard(uint64_t deadline_millis, uint64_t max_memory_bytes)
    : deadline_millis_(deadline_millis),
      max_memory_bytes_(max_memory_bytes),
      start_(std::chrono::steady_clock::now()),
      deadline_(deadline_millis == 0
                    ? std::chrono::steady_clock::time_point::max()
                    : start_ + std::chrono::milliseconds(deadline_millis)) {}

StatusCode QueryGuard::LatchStop(StatusCode code) {
  int expected = static_cast<int>(StatusCode::kOk);
  stop_code_.compare_exchange_strong(expected, static_cast<int>(code),
                                     std::memory_order_relaxed);
  // On failure `expected` holds the code that won the race; return that so
  // every caller reports one coherent reason.
  return expected == static_cast<int>(StatusCode::kOk)
             ? code
             : static_cast<StatusCode>(expected);
}

Status QueryGuard::StopError(StatusCode code) const {
  switch (code) {
    case StatusCode::kCancelled:
      return Status::Cancelled("query cancelled");
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(
          "query deadline of " + std::to_string(deadline_millis_) +
          " ms exceeded");
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(
          "query memory budget of " + std::to_string(max_memory_bytes_) +
          " bytes exceeded (tracked " +
          std::to_string(tracked_bytes_.load(std::memory_order_relaxed)) +
          " bytes)");
    default:
      return Status::Internal("guard stopped with unexpected code");
  }
}

Status QueryGuard::CheckPoint() {
  uint64_t n = checkpoints_.fetch_add(1, std::memory_order_relaxed);
  // Once tripped, stay tripped: the unwinding query sees one reason no
  // matter which loop polls next.
  int latched = stop_code_.load(std::memory_order_relaxed);
  if (latched != static_cast<int>(StatusCode::kOk)) {
    return StopError(static_cast<StatusCode>(latched));
  }
  if (cancelled_.load(std::memory_order_relaxed)) {
    return StopError(LatchStop(StatusCode::kCancelled));
  }
  if (max_memory_bytes_ != 0 &&
      tracked_bytes_.load(std::memory_order_relaxed) > max_memory_bytes_) {
    return StopError(LatchStop(StatusCode::kResourceExhausted));
  }
  if (deadline_millis_ != 0 && (n % kClockStride == 0) &&
      std::chrono::steady_clock::now() >= deadline_) {
    return StopError(LatchStop(StatusCode::kDeadlineExceeded));
  }
  return Status::OK();
}

Status QueryGuard::Charge(uint64_t bytes) {
  uint64_t total =
      tracked_bytes_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  uint64_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (total > peak && !peak_bytes_.compare_exchange_weak(
                             peak, total, std::memory_order_relaxed)) {
  }
  if (max_memory_bytes_ != 0 && total > max_memory_bytes_) {
    return StopError(LatchStop(StatusCode::kResourceExhausted));
  }
  return Status::OK();
}

GuardStats QueryGuard::Stats() const {
  GuardStats s;
  s.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  s.tracked_bytes = tracked_bytes_.load(std::memory_order_relaxed);
  s.peak_tracked_bytes = peak_bytes_.load(std::memory_order_relaxed);
  s.stop_code =
      static_cast<StatusCode>(stop_code_.load(std::memory_order_relaxed));
  return s;
}

std::string GuardStats::ToString() const {
  std::string out = "guard: checkpoints=" + std::to_string(checkpoints) +
                    " peak_bytes=" + std::to_string(peak_tracked_bytes) +
                    " stopped=";
  out += StatusCodeToString(stop_code);
  return out;
}

Status TrackedArena::Charge(uint64_t bytes) {
  if (guard_ == nullptr) return Status::OK();
  charged_ += bytes;
  return guard_->Charge(bytes);
}

void TrackedArena::Release() {
  if (guard_ != nullptr && charged_ != 0) {
    guard_->Uncharge(charged_);
  }
  charged_ = 0;
}

QueryGuard* CurrentGuard() { return g_current_guard; }

ScopedGuardBind::ScopedGuardBind(QueryGuard* guard) : prev_(g_current_guard) {
  g_current_guard = guard;
}

ScopedGuardBind::~ScopedGuardBind() { g_current_guard = prev_; }

}  // namespace xorator::ordb
