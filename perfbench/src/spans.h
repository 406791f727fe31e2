#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// Spans recorded by the benchmark around its own calls into the library's
// public functions (no tracing inside the library). A span holds a name,
// start, end, its parent span and a request id. Spans are kept in memory
// per thread (up to a cap per name) and written out when the run ends;
// per-name totals and self times (duration minus the time covered by
// child spans) are accumulated as spans close, so they stay exact past
// the cap.

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;
  double mean_us() const {
    return count == 0 ? 0.0 : static_cast<double>(total_ns) / 1e3 /
                                  static_cast<double>(count);
  }
};

/// Turns span recording on or off for every thread. Off by default; a
/// disabled Span costs one relaxed load.
void SetTracing(bool on);

/// Per-name totals over every span closed so far, all threads.
std::map<std::string, SpanTotals> SpanSummary();
/// Writes every kept span as one JSON object per line, then the totals.
/// Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::string& header_json);
uint64_t SpansKept();
uint64_t SpansDropped();

class Span {
 public:
  /// `name` must be a string literal (it is stored by pointer).
  /// `request` 0 inherits the enclosing span's request id.
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool on_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
