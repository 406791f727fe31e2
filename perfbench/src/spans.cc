#include "spans.h"

#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <vector>

#include "bench.h"

namespace perfbench {

namespace {

/// Spans of one name kept per thread for the write-out; beyond it only the
/// totals grow (an ingest run closes millions of IngestRow spans).
constexpr uint64_t kMaxKeptPerName = 20000;

struct SpanRecord {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t id;
  uint64_t parent;
  uint64_t request;
};

struct Frame {
  uint64_t id;
  uint64_t parent;
  uint64_t request;
  uint64_t start_ns;
  uint64_t child_ns;
};

struct ThreadLog {
  std::mutex mu;  ///< guards kept and totals against summary readers
  std::vector<SpanRecord> kept;
  std::map<const char*, SpanTotals> totals;
  std::vector<Frame> stack;  ///< owning thread only
};

std::atomic<bool> g_on{false};
std::atomic<uint64_t> g_next_id{0};
std::atomic<uint64_t> g_kept{0};
std::atomic<uint64_t> g_dropped{0};
std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  ///< outlive their threads

ThreadLog* Log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard<std::mutex> lock(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
  }
  return log;
}

}  // namespace

void SetTracing(bool on) { g_on.store(on, std::memory_order_relaxed); }

Span::Span(const char* name, uint64_t request)
    : name_(name), on_(g_on.load(std::memory_order_relaxed)) {
  if (!on_) return;
  ThreadLog* log = Log();
  Frame f{};
  f.id = g_next_id.fetch_add(1, std::memory_order_relaxed) + 1;
  if (!log->stack.empty()) {
    f.parent = log->stack.back().id;
    if (request == 0) request = log->stack.back().request;
  }
  f.request = request;
  f.start_ns = NowNs();
  log->stack.push_back(f);
}

Span::~Span() {
  if (!on_) return;
  uint64_t end = NowNs();
  ThreadLog* log = Log();
  Frame f = log->stack.back();
  log->stack.pop_back();
  uint64_t dur = end - f.start_ns;
  if (!log->stack.empty()) log->stack.back().child_ns += dur;
  std::lock_guard<std::mutex> lock(log->mu);
  SpanTotals& t = log->totals[name_];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - std::min(dur, f.child_ns);
  if (t.count <= kMaxKeptPerName) {
    log->kept.push_back({name_, f.start_ns, end, f.id, f.parent, f.request});
    g_kept.fetch_add(1, std::memory_order_relaxed);
  } else {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
  }
}

std::map<std::string, SpanTotals> SpanSummary() {
  std::map<std::string, SpanTotals> out;
  std::lock_guard<std::mutex> lock(g_logs_mu);
  for (const auto& log : g_logs) {
    std::lock_guard<std::mutex> log_lock(log->mu);
    for (const auto& [name, t] : log->totals) {
      SpanTotals& o = out[name];
      o.count += t.count;
      o.total_ns += t.total_ns;
      o.self_ns += t.self_ns;
    }
  }
  return out;
}

uint64_t SpansKept() { return g_kept.load(); }
uint64_t SpansDropped() { return g_dropped.load(); }

bool WriteSpans(const std::string& path, const std::string& header_json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"host\": %s}\n", header_json.c_str());
  {
    std::lock_guard<std::mutex> lock(g_logs_mu);
    for (const auto& log : g_logs) {
      std::lock_guard<std::mutex> log_lock(log->mu);
      for (const SpanRecord& s : log->kept) {
        std::fprintf(f,
                     "{\"span\": \"%s\", \"start_ns\": %llu, \"end_ns\": "
                     "%llu, \"id\": %llu, \"parent\": %llu, \"request\": "
                     "%llu}\n",
                     s.name, static_cast<unsigned long long>(s.start_ns),
                     static_cast<unsigned long long>(s.end_ns),
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent),
                     static_cast<unsigned long long>(s.request));
      }
    }
  }
  for (const auto& [name, t] : SpanSummary()) {
    std::fprintf(f,
                 "{\"totals\": \"%s\", \"count\": %llu, \"total_ns\": %llu, "
                 "\"self_ns\": %llu}\n",
                 name.c_str(), static_cast<unsigned long long>(t.count),
                 static_cast<unsigned long long>(t.total_ns),
                 static_cast<unsigned long long>(t.self_ns));
  }
  std::fprintf(f, "{\"spans_kept\": %llu, \"spans_dropped\": %llu}\n",
               static_cast<unsigned long long>(SpansKept()),
               static_cast<unsigned long long>(SpansDropped()));
  return std::fclose(f) == 0;
}

}  // namespace perfbench
