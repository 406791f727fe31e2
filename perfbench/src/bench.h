#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared plumbing of the benchmark binary: command-line arguments, the
// per-run report (metrics, operation counts, check failures), clocks and
// order statistics.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/hybrid_engine.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Reduced sizes so all four workloads finish in seconds (the
  /// benchmark's own smoke test); every check still runs.
  bool smoke = false;
  /// Where the traced run writes its spans (JSON lines).
  std::string trace_out;
  std::string git_sha = "unknown";
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One run's outcome. `failed` counts operations the program refused or
/// errored on; a wrong answer is a failed check and clears `correct`.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  void Fail(const std::string& what);
  /// Records a check: on false, fails the run with `what`.
  bool Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
    return ok;
  }

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  uint64_t failures = 0;  ///< failed checks (the first 20 go to stderr)
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the whole process (every thread), in nanoseconds.
inline uint64_t ProcessCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// xorshift64* — the benchmark's own input generator, so inputs depend
/// only on --seed and not on the library's generators.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ull + 1) {
    if (state_ == 0) state_ = 1;
    for (int i = 0; i < 4; ++i) Next();
  }
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 2685821657736338717ull;
  }
  /// Uniform in [0, 1).
  double Uniform() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// The engine configuration every workload shares with tools/ab_serve:
/// 16 equi-depth bins, alpha 16, one filter per attribute, independent
/// hash functions, optimal k.
abitmap::engine::HybridEngine::Options EngineOptions(int num_threads);

/// The three MakeSeedTable columns as raw arrays (column-major).
using Columns = std::vector<std::vector<double>>;
abitmap::engine::Table TableFromColumns(const Columns& columns);

/// `count` conjunctions of 1-2 range predicates over MakeSeedTable's value
/// ranges (the shape serve::MakeQueryTemplates draws), stratified: each
/// random draw (predicate count, attributes, widths of 10-50% of the value
/// range, positions) takes one value from each of `count` equal strata in
/// a seeded order. Every seed then gets the same mix of query costs, and
/// the seed decides only which query meets which.
std::vector<std::vector<abitmap::engine::ValuePredicate>> StratifiedPredicates(
    size_t count, uint64_t seed);

/// One row drawn from MakeSeedTable's column distributions.
std::vector<double> RandomRow(Rng* rng);

void RunServedSubset(const Args& args, Report* report);
void RunSubsetLarge(const Args& args, Report* report);
void RunScanExact(const Args& args, Report* report);
void RunIngestChurn(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
