// subset_large and scan_exact: one caller thread runs a seeded query list
// through HybridEngine::Execute in a closed loop, checking every answer
// against the oracle. subset_large takes the pooled AB path on a table
// whose filters are past L2; scan_exact sends whole-relation queries to
// the exact backends of a table reordered by its first column.

#include <algorithm>
#include <memory>
#include <numeric>

#include "bench.h"
#include "bitmap/query.h"
#include "layers.h"
#include "spans.h"

namespace perfbench {

using abitmap::engine::EngineResult;
using abitmap::engine::HybridEngine;

namespace {

struct Shape {
  uint64_t rows = 0;
  int threads = 1;
  int setup_reps = 3;
  bool ab_routed = true;
  abitmap::ab::BuildStrategy build_strategy = abitmap::ab::BuildStrategy::kAuto;

  HybridEngine::Options Options() const {
    HybridEngine::Options options = EngineOptions(threads);
    options.ab.build_strategy = build_strategy;
    return options;
  }
};

struct Loop {
  uint64_t completed = 0;
  double seconds = 0;
  std::vector<double> lat_us;
  EngineTally tally;
};

/// Closed loop over `queries` from position *next (cycling) for `seconds`.
Loop QueryLoop(const HybridEngine& engine,
               const std::vector<BenchQuery>& queries, size_t* next,
               double seconds, Report* report) {
  Loop loop;
  uint64_t wrong = 0;
  uint64_t start = NowNs();
  uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  while (NowNs() < end) {
    const BenchQuery& q = queries[*next % queries.size()];
    ++*next;
    uint64_t t0 = NowNs();
    EngineResult res;
    {
      Span span("engine.HybridEngine::Execute", *next);
      res = engine.Execute(q.query);
    }
    loop.lat_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    loop.tally.Add(res);
    if (!SameRows(res.row_ids, q.expected)) ++wrong;
    ++loop.completed;
  }
  loop.seconds = static_cast<double>(NowNs() - start) / 1e9;
  report->attempted += loop.completed;
  report->Check(wrong == 0,
                std::to_string(wrong) + " answers differ from the oracle");
  return loop;
}

void RunInProcess(const Args& args, const Shape& shape, const Columns& columns,
                  std::vector<BenchQuery> queries, Report* report) {
  Oracle oracle(columns);
  oracle.BinAttributes(shape.Options().binning.bins);
  ComputeExpected(oracle, &queries);

  std::unique_ptr<HybridEngine> engine;
  std::vector<double> setup_s;
  for (int rep = 0; rep < shape.setup_reps; ++rep) {
    engine.reset();
    abitmap::engine::Table table = TableFromColumns(columns);
    uint64_t t0 = NowNs();
    engine = std::make_unique<HybridEngine>(
        HybridEngine::Build(std::move(table), shape.Options()));
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  report->Set("setup_s", Median(setup_s), "s");
  EmitIndexSizes(*engine, report);

  size_t next = 0;
  uint64_t attempted_before = report->attempted;
  QueryLoop(*engine, queries, &next, args.smoke ? 0.2 : 1.0, report);
  report->attempted = attempted_before;  // warm-up is not measured
  Loop measured = QueryLoop(*engine, queries, &next, args.seconds, report);
  double qps = static_cast<double>(measured.completed) / measured.seconds;
  report->Set("qps", qps, "1/s");
  report->Set("p50_us", Median(measured.lat_us), "us");

  if (args.trace) {
    SetTracing(true);
    Loop traced = QueryLoop(*engine, queries, &next, args.seconds, report);
    double qps_traced = static_cast<double>(traced.completed) / traced.seconds;
    report->Set("obs.trace_overhead_frac", (qps - qps_traced) / qps, "ratio");
    std::vector<double> all = measured.lat_us;
    all.insert(all.end(), traced.lat_us.begin(),
               traced.lat_us.end());
    report->Set("client.p99_us", Quantile(all, 0.99), "us");
    traced.tally.Emit(report);
    auto spans = SpanSummary();
    report->Set("engine.execute_us",
                spans["engine.HybridEngine::Execute"].mean_us(), "us");
  }

  CheckAbIndex(*engine, oracle, args.seed, args.smoke, report);
  CheckCandidates(*engine, queries, 64, report);
  if (args.trace) {
    ProbeOptions probe;
    probe.threads = shape.threads;
    probe.ab_routed = shape.ab_routed;
    probe.build_strategy = shape.build_strategy;
    LayerProbes(*engine, oracle, queries, probe, report);
  }
  IngestRounds(columns, args.seed, args.smoke ? 0.5 : 8.0, args.smoke,
               report);
  if (args.trace) EmitIngestSpans(report);
}

}  // namespace

void RunSubsetLarge(const Args& args, Report* report) {
  Shape shape;
  shape.rows = args.smoke ? 200000 : 2000000;
  // Two engine threads, not four: each query waits for the slowest of its
  // ParallelFor chunks, so on a shared 4-vCPU host a 4-thread pool read
  // 39-100 qps with the host's load, where two threads read 48-58.
  // The partition-owner build, which auto picks only at 4+ threads for 3
  // filters, is forced so the build path stays the one this workload is
  // for.
  shape.threads = 2;
  shape.build_strategy = abitmap::ab::BuildStrategy::kPartitionOwner;
  shape.setup_reps = args.smoke ? 2 : 3;
  // Subsets of 16,384-32,768 rows at full size (scaled down in smoke
  // mode): at or above the engine's pooled-evaluation threshold, and
  // below its 2% AB crossover.
  const uint64_t min_subset = 16384 * shape.rows / 2000000;
  Rng rng(args.seed * 3 + 11);
  std::vector<BenchQuery> queries(args.smoke ? 128 : 1024);
  auto preds = StratifiedPredicates(queries.size(), args.seed * 3 + 12);
  for (size_t i = 0; i < queries.size(); ++i) {
    // Subset lengths are stratified like the predicates (389 is coprime
    // to the list length, so this visits every stratum in a mixed order).
    uint64_t len = min_subset + (min_subset * ((i * 389) % queries.size())) /
                                    queries.size();
    uint64_t first = rng.Below(shape.rows - len);
    queries[i].query.predicates = preds[i];
    queries[i].query.rows = abitmap::bitmap::RowRange(first, first + len - 1);
  }
  RunInProcess(args, shape, SeedColumns(shape.rows, args.seed),
               std::move(queries), report);
}

void RunScanExact(const Args& args, Report* report) {
  Shape shape;
  shape.rows = args.smoke ? 20000 : 200000;
  shape.threads = 1;
  shape.setup_reps = args.smoke ? 2 : 5;
  shape.ab_routed = false;
  Columns columns = SeedColumns(shape.rows, args.seed);
  // Reorder rows by column 0 so its bitmaps become long runs.
  std::vector<uint64_t> order(shape.rows);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](uint64_t a, uint64_t b) {
    return columns[0][a] < columns[0][b];
  });
  Columns sorted(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    sorted[c].reserve(shape.rows);
    for (uint64_t r : order) sorted[c].push_back(columns[c][r]);
  }
  std::vector<BenchQuery> queries(args.smoke ? 64 : 512);
  auto preds = StratifiedPredicates(queries.size(), args.seed * 5 + 13);
  for (size_t i = 0; i < queries.size(); ++i) {
    queries[i].query.predicates = preds[i];
  }
  RunInProcess(args, shape, sorted, std::move(queries), report);
}

}  // namespace perfbench
