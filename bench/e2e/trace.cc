#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string_view>

#include "util/sync.h"

namespace ruidx {
namespace e2e {
namespace {

struct Record {
  const char* name;
  int64_t start_ns;
  int64_t end_ns;
  int32_t parent;  // index into the same thread's records, -1 for a root
  uint64_t op;
};

struct ThreadBuffer {
  uint32_t tid = 0;
  uint64_t op = 0;
  std::vector<Record> records;
  std::vector<int32_t> open;  // indices of the spans still open, innermost last
};

std::atomic<bool> g_enabled{false};
Mutex g_buffers_mu{LockRank::kLeafLatch, "e2e.trace_buffers"};
// Owned here rather than by the threads so that spans survive their thread.
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers
    RUIDX_GUARDED_BY(g_buffers_mu);
thread_local ThreadBuffer* t_buffer = nullptr;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ThreadBuffer* LocalBuffer() {
  if (t_buffer == nullptr) {
    auto buffer = std::make_unique<ThreadBuffer>();
    buffer->records.reserve(1 << 16);
    MutexLock lock(&g_buffers_mu);
    buffer->tid = static_cast<uint32_t>(g_buffers.size() + 1);
    t_buffer = buffer.get();
    g_buffers.push_back(std::move(buffer));
  }
  return t_buffer;
}

double DurationUs(const Record& r) {
  return static_cast<double>(r.end_ns - r.start_ns) / 1000.0;
}

}  // namespace

void EnableTracing() { g_enabled.store(true, std::memory_order_relaxed); }

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetCurrentOp(uint64_t op) {
  if (TracingEnabled()) LocalBuffer()->op = op;
}

Span::Span(const char* name) {
  if (!TracingEnabled()) return;
  ThreadBuffer* b = LocalBuffer();
  index_ = static_cast<int64_t>(b->records.size());
  int32_t parent = b->open.empty() ? -1 : b->open.back();
  b->records.push_back(Record{name, NowNs(), 0, parent, b->op});
  b->open.push_back(static_cast<int32_t>(index_));
}

Span::~Span() {
  if (index_ < 0) return;
  t_buffer->records[static_cast<size_t>(index_)].end_ns = NowNs();
  t_buffer->open.pop_back();
}

std::map<std::string, SpanSummary> SummarizeSpans() {
  std::map<std::string, SpanSummary> out;
  MutexLock lock(&g_buffers_mu);
  for (const auto& buffer : g_buffers) {
    const std::vector<Record>& records = buffer->records;
    // Spans of one thread nest strictly, so a span's children never
    // overlap each other and their summed durations are the covered part.
    std::vector<double> child_us(records.size(), 0.0);
    for (const Record& r : records) {
      if (r.parent >= 0) child_us[static_cast<size_t>(r.parent)] += DurationUs(r);
    }
    for (size_t i = 0; i < records.size(); ++i) {
      SpanSummary& s = out[records[i].name];
      double d = DurationUs(records[i]);
      ++s.count;
      s.busy_us += d;
      s.self_us += d - child_us[i];
      s.durations_us.push_back(d);
    }
  }
  for (auto& [name, s] : out) {
    std::sort(s.durations_us.begin(), s.durations_us.end());
  }
  return out;
}

bool WriteChromeTrace(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  MutexLock lock(&g_buffers_mu);
  int64_t origin = INT64_MAX;
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->records) origin = std::min(origin, r.start_ns);
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->records) {
      std::string_view name(r.name);
      std::string layer(name.substr(0, name.find('.')));
      const char* parent =
          r.parent >= 0 ? buffer->records[static_cast<size_t>(r.parent)].name
                        : "";
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                   "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                   "\"args\":{\"op\":%llu,\"parent\":\"%s\"}}",
                   first ? "" : ",", r.name, layer.c_str(),
                   static_cast<double>(r.start_ns - origin) / 1000.0,
                   DurationUs(r), buffer->tid,
                   static_cast<unsigned long long>(r.op), parent);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace e2e
}  // namespace ruidx
