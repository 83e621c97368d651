#include "ordb/health.h"

#include <cassert>

namespace xorator::ordb {

std::string_view HealthStateName(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "Healthy";
    case HealthState::kDegraded:
      return "Degraded";
    case HealthState::kReadOnly:
      return "ReadOnly";
    case HealthState::kFailed:
      return "Failed";
  }
  return "Unknown";
}

HealthSnapshot EngineHealth::Snapshot() const {
  xo::MutexLock lock(&mu_);
  HealthSnapshot snap;
  snap.state = state();
  snap.transitions = transitions();
  snap.detail = detail_;
  return snap;
}

void EngineHealth::Escalate(HealthState to, std::string detail) {
  xo::MutexLock lock(&mu_);
  const int cur = state_.load(std::memory_order_relaxed);
  const int want = static_cast<int>(to);
  if (want > cur) {
    state_.store(want, std::memory_order_relaxed);
    transitions_.fetch_add(1, std::memory_order_relaxed);
    detail_ = std::move(detail);
  } else if (want == cur && !detail.empty()) {
    // Same severity again: keep the freshest reason, no transition.
    detail_ = std::move(detail);
  }
}

void EngineHealth::ReportDegraded(std::string detail) {
  Escalate(HealthState::kDegraded, std::move(detail));
}

void EngineHealth::ReportReadOnly(std::string detail) {
  Escalate(HealthState::kReadOnly, std::move(detail));
}

void EngineHealth::ReportFailed(std::string detail) {
  Escalate(HealthState::kFailed, std::move(detail));
}

bool EngineHealth::Recover() {
  xo::MutexLock lock(&mu_);
  const HealthState cur =
      static_cast<HealthState>(state_.load(std::memory_order_relaxed));
  if (cur == HealthState::kHealthy) return true;
  if (cur == HealthState::kFailed) {
    // The machine's one illegal edge (see the class comment): kFailed is
    // terminal, and a caller claiming to have recovered a detached
    // storage stack is lying about an invariant. Fail the build's debug
    // tier loudly; stay failed in release.
    assert(false && "EngineHealth::Recover() called on a kFailed engine");
    return false;
  }
  state_.store(static_cast<int>(HealthState::kHealthy),
               std::memory_order_relaxed);
  transitions_.fetch_add(1, std::memory_order_relaxed);
  detail_.clear();
  return true;
}

Status EngineHealth::CheckWritable() const {
  xo::MutexLock lock(&mu_);
  const HealthState cur = state();
  if (cur == HealthState::kHealthy || cur == HealthState::kDegraded) {
    return Status::OK();
  }
  std::string msg = "engine is " + std::string(HealthStateName(cur)) +
                    "; mutations are disabled";
  if (!detail_.empty()) msg += " (" + detail_ + ")";
  if (cur == HealthState::kReadOnly) {
    // The state name, latched detail, and the recovery hint all ride the
    // message, and the retry-after hint rides the status itself — both
    // survive the wire protocol's ERROR frame, so a remote client's
    // backoff layer can tell "retry later, recovery may re-arm the
    // engine" from "give up" (DESIGN.md section 17). kReadOnly is not a
    // hot-retry: nothing changes until TryRecover() runs, so the hint is
    // deliberately coarse.
    msg += "; TryRecover() may re-arm it";
    return Status::Unavailable(std::move(msg))
        .WithRetryAfter(kReadOnlyRetryAfterMillis);
  }
  return Status::Unavailable(std::move(msg));
}

Status EngineHealth::CheckUsable() const {
  xo::MutexLock lock(&mu_);
  if (state() != HealthState::kFailed) return Status::OK();
  std::string msg = "engine is Failed; reopen the database";
  if (!detail_.empty()) msg += " (" + detail_ + ")";
  return Status::Unavailable(std::move(msg));
}

}  // namespace xorator::ordb
