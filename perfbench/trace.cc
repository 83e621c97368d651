#include "trace.h"

#include <atomic>
#include <chrono>
#include <fstream>
#include <mutex>
#include <unordered_map>

namespace xorator::perfbench {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<uint64_t> g_next_id{1};
std::mutex g_mu;
std::vector<SpanRecord>* g_spans = new std::vector<SpanRecord>();

thread_local uint64_t t_parent = 0;
thread_local uint64_t t_op = 0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

void Tracer::SetEnabled(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> Tracer::Snapshot() {
  std::lock_guard<std::mutex> lock(g_mu);
  return *g_spans;
}

bool Tracer::WriteJsonLines(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(g_mu);
  for (const SpanRecord& s : *g_spans) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << ",\"name\":\"" << JsonEscape(s.name)
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
  return static_cast<bool>(out);
}

Span::Span(std::string name, bool new_op) {
  if (!Tracer::enabled()) return;
  active_ = true;
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = t_parent;
  record_.op = (new_op || t_op == 0)
                   ? g_next_id.fetch_add(1, std::memory_order_relaxed)
                   : t_op;
  record_.name = std::move(name);
  saved_parent_ = t_parent;
  saved_op_ = t_op;
  t_parent = record_.id;
  t_op = record_.op;
  record_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = NowNs();
  t_parent = saved_parent_;
  t_op = saved_op_;
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans->push_back(std::move(record_));
}

std::map<std::string, SpanTotals> RollUp(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, double> child_ms;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_ms[s.parent] += s.millis();
  }
  std::map<std::string, SpanTotals> out;
  for (const SpanRecord& s : spans) {
    SpanTotals& t = out[s.name];
    ++t.calls;
    t.total_ms += s.millis();
    auto it = child_ms.find(s.id);
    t.self_ms += s.millis() - (it == child_ms.end() ? 0.0 : it->second);
  }
  return out;
}

std::map<uint64_t, std::vector<const SpanRecord*>> GroupByOp(
    const std::vector<SpanRecord>& spans) {
  std::map<uint64_t, std::vector<const SpanRecord*>> out;
  for (const SpanRecord& s : spans) out[s.op].push_back(&s);
  return out;
}

}  // namespace xorator::perfbench
