#ifndef XORATOR_PERFBENCH_TRACE_H_
#define XORATOR_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace xorator::perfbench {

/// One finished span: a timed call into an engine entry point, made from the
/// benchmark's own code. Spans of one operation (a statement execution, a
/// load stage) share `op`; `parent` is the enclosing span's id (0 = root).
struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t op = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double millis() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

/// Process-wide span recorder. Off by default; while off a Span costs one
/// relaxed load. Spans are kept in memory and written out when the run ends.
class Tracer {
 public:
  static void SetEnabled(bool enabled);
  static bool enabled();

  /// Spans finished so far, in finishing order.
  static std::vector<SpanRecord> Snapshot();

  /// Writes every span as one JSON object per line. Returns false when the
  /// file cannot be written.
  static bool WriteJsonLines(const std::string& path);
};

/// RAII span around one call. A span opened with `new_op` starts a new
/// operation id; otherwise it joins its parent's operation (or starts one
/// when it has no parent).
class Span {
 public:
  explicit Span(std::string name, bool new_op = false);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
  uint64_t saved_op_ = 0;
};

/// Per-name roll-up of a span list: calls, inclusive time and self time
/// (inclusive minus the time covered by direct children).
struct SpanTotals {
  uint64_t calls = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::map<std::string, SpanTotals> RollUp(const std::vector<SpanRecord>& spans);

/// The spans of each operation, grouped by op id.
std::map<uint64_t, std::vector<const SpanRecord*>> GroupByOp(
    const std::vector<SpanRecord>& spans);

}  // namespace xorator::perfbench

#endif  // XORATOR_PERFBENCH_TRACE_H_
