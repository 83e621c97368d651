#include "ordb/exec_context.h"

namespace xorator::ordb {

namespace {
thread_local ExecContext* t_current = nullptr;
}  // namespace

ExecContext* ExecContext::Current() { return t_current; }

ScopedExecContext::ScopedExecContext(ExecContext& ctx) : prev_(t_current) {
  t_current = &ctx;
}

ScopedExecContext::~ScopedExecContext() { t_current = prev_; }

}  // namespace xorator::ordb
