// Span recording for bench_e2e.
//
// The benchmark wraps each of its own calls into a library layer in a Span
// named "<layer>.<call>" (xml.parse, core.label, storage.commit, ...); the
// workloads' operations are root spans named "op.<kind>". Spans land in
// per-thread in-memory buffers, so recording takes no lock; the buffers are
// summarised and written out as Chrome trace-event JSON once every worker
// has been joined. With tracing off a Span costs one relaxed atomic load.
#ifndef RUIDX_BENCH_E2E_TRACE_H_
#define RUIDX_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ruidx {
namespace e2e {

/// Turns recording on for the rest of the process. Call before any thread
/// other than the caller opens a span.
void EnableTracing();
bool TracingEnabled();

/// Tags the spans this thread opens from now on with operation id `op`, so
/// the spans of one operation can be grouped (0 = outside any operation).
void SetCurrentOp(uint64_t op);

/// Records [construction, destruction) under `name`, which must be a
/// string literal. The enclosing open span of the same thread is its parent.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int64_t index_ = -1;
};

struct SpanSummary {
  uint64_t count = 0;
  /// Total duration of the spans.
  double busy_us = 0;
  /// Busy time minus the part of it that child spans cover.
  double self_us = 0;
  /// Every duration, ascending.
  std::vector<double> durations_us;
};

/// Aggregates every recorded span by name. Call only after all threads that
/// recorded spans have been joined.
std::map<std::string, SpanSummary> SummarizeSpans();

/// Writes every recorded span as Chrome trace-event JSON ("X" events, one
/// track per thread, the op id and parent span in args). Same threading
/// rule as SummarizeSpans. Returns false on an I/O error.
bool WriteChromeTrace(const std::string& path);

}  // namespace e2e
}  // namespace ruidx

#endif  // RUIDX_BENCH_E2E_TRACE_H_
