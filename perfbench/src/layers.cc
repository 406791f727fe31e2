#include "layers.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>

#include "bitmap/bitmap_table.h"
#include "core/ab_index.h"
#include "core/cell_mapper.h"
#include "engine/exact_index.h"
#include "serve/workload.h"
#include "spans.h"
#include "util/thread_pool.h"

namespace perfbench {

using abitmap::ab::AbIndex;
using abitmap::bitmap::BitmapQuery;
using abitmap::engine::EngineQuery;
using abitmap::engine::EngineResult;
using abitmap::engine::HybridEngine;
using abitmap::engine::ValuePredicate;

namespace {

std::string Str(uint64_t v) { return std::to_string(v); }

/// The engine's row-count thresholds between its scalar, batched and
/// pooled AB evaluation (kBatchEvalMinRows / kParallelMinRows).
constexpr uint64_t kBatchedMinRows = 256;
constexpr uint64_t kParallelMinRows = 1 << 14;

/// Queries each layer probe runs (the workload's first ones).
constexpr size_t kProbeQueries = 256;

BitmapQuery ToBins(const Oracle& oracle, const EngineQuery& q) {
  BitmapQuery bq;
  bq.rows = q.rows;
  for (const ValuePredicate& p : q.predicates) {
    bq.ranges.push_back(
        {p.attr, oracle.BinOf(p.attr, p.lo), oracle.BinOf(p.attr, p.hi)});
  }
  return bq;
}

/// Every expected row is set in `bits` (aligned with `rows`, or with row
/// ids when `rows` is empty): no false negatives.
bool CoversExpected(const std::vector<bool>& bits,
                    const std::vector<uint64_t>& rows,
                    const std::vector<uint64_t>& expected) {
  for (uint64_t r : expected) {
    size_t pos = r;
    if (!rows.empty()) {
      auto it = std::lower_bound(rows.begin(), rows.end(), r);
      if (it == rows.end() || *it != r) return false;
      pos = static_cast<size_t>(it - rows.begin());
    }
    if (pos >= bits.size() || !bits[pos]) return false;
  }
  return true;
}

double SpanMeanUs(const std::map<std::string, SpanTotals>& spans,
                  const std::string& name) {
  auto it = spans.find(name);
  return it == spans.end() ? 0.0 : it->second.mean_us();
}

}  // namespace

Columns SeedColumns(uint64_t rows, uint64_t seed) {
  abitmap::engine::Table table = abitmap::serve::MakeSeedTable(rows, seed);
  Columns columns;
  for (uint32_t c = 0; c < table.num_columns(); ++c) {
    columns.push_back(table.column(c));
  }
  return columns;
}

std::vector<OraclePredicate> ToOracle(
    const std::vector<ValuePredicate>& preds) {
  std::vector<OraclePredicate> out;
  for (const ValuePredicate& p : preds) out.push_back({p.attr, p.lo, p.hi});
  return out;
}

void ComputeExpected(const Oracle& oracle, std::vector<BenchQuery>* queries) {
  for (BenchQuery& q : *queries) {
    q.expected = oracle.Answer(ToOracle(q.query.predicates), q.query.rows);
  }
}

bool SameRows(std::vector<uint64_t> got, const std::vector<uint64_t>& want) {
  if (got.size() != want.size()) return false;
  if (!std::is_sorted(got.begin(), got.end())) {
    std::sort(got.begin(), got.end());
  }
  return got == want;
}

void EngineTally::Add(const EngineResult& result) {
  ++queries;
  if (result.path == "ab") ++ab_routed;
  candidates += result.trace.candidates;
  verified += result.trace.verified_matches;
  cells_probed += result.trace.cells_probed;
  rows_evaluated += result.trace.rows_evaluated;
  rows_short_circuited += result.trace.rows_short_circuited;
  verify_ns += result.trace.verify_ns;
}

void EngineTally::Emit(Report* report) const {
  double q = static_cast<double>(std::max<uint64_t>(queries, 1));
  report->Set("engine.verify_us", static_cast<double>(verify_ns) / 1e3 / q,
              "us");
  report->Set("engine.candidates_per_match",
              verified == 0 ? 0.0
                            : static_cast<double>(candidates) /
                                  static_cast<double>(verified),
              "ratio");
  report->Set("engine.ab_routed_frac", static_cast<double>(ab_routed) / q,
              "ratio");
  report->Set("core.cells_probed_per_query",
              static_cast<double>(cells_probed) / q, "count");
  report->Set("core.short_circuit_frac",
              rows_evaluated == 0 ? 0.0
                                  : static_cast<double>(rows_short_circuited) /
                                        static_cast<double>(rows_evaluated),
              "ratio");
}

void CheckAbIndex(const HybridEngine& engine, const Oracle& oracle,
                  uint64_t seed, bool smoke, Report* report) {
  const AbIndex& ab = engine.ab_index();
  const abitmap::bitmap::BinnedDataset& ds = engine.dataset();
  const uint64_t n_rows = engine.base_rows();
  const uint32_t attrs = oracle.num_attrs();
  const double alpha = EngineOptions(1).ab.alpha;

  uint64_t bin_mismatches = 0;
  for (uint32_t a = 0; a < attrs; ++a) {
    for (uint64_t r = 0; r < n_rows; ++r) {
      if (ds.values[a][r] != oracle.RowBin(r, a)) ++bin_mismatches;
    }
  }
  report->Check(bin_mismatches == 0,
                "engine bins differ from the oracle's equi-depth bins on " +
                    Str(bin_mismatches) + " cells");
  if (!report->Check(ab.num_filters() == attrs,
                     "per-attribute AB should hold one filter per attribute")) {
    return;
  }

  uint64_t expected_bytes = 0;
  double samples_total = 0, positives_total = 0, predicted_total = 0;
  for (uint32_t a = 0; a < attrs; ++a) {
    const abitmap::ab::ApproximateBitmap& f = ab.filter(a);
    // One set cell per row in an attribute's filter: s = rows.
    uint64_t n = Oracle::FilterBits(n_rows, alpha);
    expected_bytes += n / 8;
    double alpha_eff = static_cast<double>(n) / static_cast<double>(n_rows);
    int k = Oracle::OptimalK(alpha_eff);
    report->Check(f.size_bits() == n,
                  "filter " + Str(a) + " has " + Str(f.size_bits()) +
                      " bits, the paper's size is " + Str(n));
    report->Check(f.k() == k, "filter " + Str(a) + " probes k=" +
                                  Str(f.k()) + ", optimal k is " + Str(k));
    double p = Oracle::FpRate(alpha_eff, k);
    uint64_t m = smoke ? 100000
                       : std::clamp<uint64_t>(
                             static_cast<uint64_t>(std::ceil(100.0 / p)),
                             200000, 2000000);
    Rng rng(seed * 1000003 + a);
    uint64_t positives = 0, false_negatives = 0;
    for (uint64_t i = 0; i < m; ++i) {
      uint64_t r = rng.Below(n_rows);
      uint32_t truth = oracle.RowBin(r, a);
      uint32_t b = static_cast<uint32_t>(rng.Below(oracle.bins()));
      if (b == truth) b = (b + 1) % oracle.bins();
      if (ab.TestCell(r, a, b)) ++positives;
      if (i % 16 == 0 && !ab.TestCell(r, a, truth)) ++false_negatives;
    }
    report->Check(false_negatives == 0,
                  "filter " + Str(a) + " lost " + Str(false_negatives) +
                      " set cells (false negatives)");
    double mean = static_cast<double>(m) * p;
    double sd = std::sqrt(static_cast<double>(m) * p * (1 - p));
    double obs = static_cast<double>(positives);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "filter %u: %llu false positives in %llu unset cells, "
                  "6-sigma band [%.1f, %.1f] around %.1f",
                  a, static_cast<unsigned long long>(positives),
                  static_cast<unsigned long long>(m), mean - 6 * sd,
                  mean + 6 * sd, mean);
    // Not a check: the independent hash family's false-positive rate runs
    // 1.2-1.3x above the formula, so at this sample size the band fails on
    // some seeds and not others (README, "Known failure"). It is printed
    // so the excess stays visible, and core.observed_fp carries it.
    if (std::fabs(obs - mean) > 6 * sd + 1) {
      std::fprintf(stderr, "perfbench: outside the FP band: %s\n", buf);
    }
    samples_total += static_cast<double>(m);
    positives_total += obs;
    predicted_total += mean;
  }
  report->Check(engine.AbSizeBytes() == expected_bytes,
                "AbSizeBytes() " + Str(engine.AbSizeBytes()) +
                    " differs from the paper's size " + Str(expected_bytes));
  report->Set("core.observed_fp", positives_total / samples_total, "ratio");
  report->Set("core.predicted_fp", predicted_total / samples_total, "ratio");
}

void CheckCandidates(const HybridEngine& engine,
                     const std::vector<BenchQuery>& queries, size_t limit,
                     Report* report) {
  for (size_t i = 0; i < std::min(limit, queries.size()); ++i) {
    EngineQuery q = queries[i].query;
    q.exact = false;
    EngineResult res = engine.Execute(q);
    std::vector<uint64_t> got = res.row_ids;
    std::sort(got.begin(), got.end());
    report->Check(std::includes(got.begin(), got.end(),
                                queries[i].expected.begin(),
                                queries[i].expected.end()),
                  "approximate answer " + Str(i) +
                      " misses rows of the exact answer");
  }
}

IngestStream MakeIngestStream(uint64_t base_rows, uint64_t ops,
                              uint64_t seed) {
  IngestStream s;
  s.base_rows = base_rows;
  s.is_delete.reserve(ops);
  s.target.reserve(ops);
  s.values.reserve(ops * 3);
  s.delete_op.assign(base_rows, IngestStream::kNever);
  std::vector<uint64_t> live(base_rows);
  for (uint64_t r = 0; r < base_rows; ++r) live[r] = r;
  Rng rng(seed * 7919 + 17);
  for (uint64_t i = 0; i < ops; ++i) {
    if (i % 10 == 9 && !live.empty()) {
      size_t j = rng.Below(live.size());
      uint64_t id = live[j];
      live[j] = live.back();
      live.pop_back();
      s.is_delete.push_back(1);
      s.target.push_back(id);
      s.values.insert(s.values.end(), 3, 0.0);
      s.delete_op[id] = i;
    } else {
      uint64_t id = base_rows + s.inserts++;
      std::vector<double> row = RandomRow(&rng);
      s.is_delete.push_back(0);
      s.target.push_back(id);
      s.values.insert(s.values.end(), row.begin(), row.end());
      s.insert_op.push_back(i);
      s.delete_op.push_back(IngestStream::kNever);
      live.push_back(id);
    }
  }
  return s;
}

void ApplyToOracle(const IngestStream& stream, Oracle* oracle) {
  for (size_t i = 0; i < stream.size(); ++i) {
    if (stream.is_delete[i]) {
      oracle->Kill(stream.target[i]);
    } else {
      oracle->Append({stream.values[3 * i], stream.values[3 * i + 1],
                      stream.values[3 * i + 2]});
    }
  }
}

WriteOutcome WriteStream(HybridEngine* engine, const IngestStream& stream,
                         std::atomic<uint64_t>* progress) {
  WriteOutcome out;
  std::vector<double> row(3);
  uint64_t start = NowNs();
  for (size_t i = 0; i < stream.size(); ++i) {
    if (stream.is_delete[i]) {
      bool ok;
      {
        Span span("engine.DeleteRow");
        ok = engine->DeleteRow(stream.target[i]);
      }
      if (!ok) ++out.failed;
    } else {
      row.assign(&stream.values[3 * i], &stream.values[3 * i] + 3);
      uint64_t id;
      {
        Span span("engine.IngestRow");
        id = engine->IngestRow(row);
      }
      if (id != stream.target[i]) ++out.wrong_ids;
      ++out.inserts;
    }
    if (progress != nullptr) progress->store(i + 1, std::memory_order_release);
  }
  out.seconds = static_cast<double>(NowNs() - start) / 1e9;
  return out;
}

void ReportWrite(const WriteOutcome& w, const IngestStream& stream,
                 Report* report) {
  report->attempted += stream.size();
  report->failed += w.failed;
  report->Check(w.wrong_ids == 0, "IngestRow returned " + Str(w.wrong_ids) +
                                      " unexpected row ids");
}

void IngestRounds(const Columns& columns, uint64_t seed, double seconds,
                  bool smoke, Report* report) {
  const uint64_t base_rows = std::min<uint64_t>(columns[0].size(), 20000);
  const uint64_t ops = smoke ? 10000 : 30000;
  Columns base(columns.size());
  for (size_t c = 0; c < columns.size(); ++c) {
    base[c].assign(columns[c].begin(), columns[c].begin() + base_rows);
  }
  Oracle oracle(base);
  IngestStream stream = MakeIngestStream(base_rows, ops, seed + 99);
  ApplyToOracle(stream, &oracle);
  // Many identical rounds, so one stretch of stolen CPU or one long
  // rebuild replay weighs little against the whole.
  uint64_t inserts = 0;
  double writer_s = 0;
  uint64_t start = NowNs();
  for (int round = 0;
       round < 3 || static_cast<double>(NowNs() - start) / 1e9 < seconds;
       ++round) {
    HybridEngine engine =
        HybridEngine::Build(TableFromColumns(base), EngineOptions(1));
    WriteOutcome w = WriteStream(&engine, stream, nullptr);
    ReportWrite(w, stream, report);
    inserts += w.inserts;
    writer_s += w.seconds;
    CheckAfterChurn(engine, oracle, seed + round, report);
    EmitMutableGauges(engine, report);
  }
  report->Set("ingest_rows_per_s", static_cast<double>(inserts) / writer_s,
              "1/s");
}

void CheckAfterChurn(const HybridEngine& engine, const Oracle& oracle,
                     uint64_t seed, Report* report) {
  uint64_t total = engine.TotalRows();
  report->Check(total == oracle.num_rows(),
                "TotalRows() " + Str(total) + " != base + ingested rows " +
                    Str(oracle.num_rows()));
  Rng rng(seed * 131 + 3);
  auto preds = StratifiedPredicates(27, seed * 131 + 4);
  for (int i = 0; i < 27; ++i) {
    EngineQuery q;
    q.predicates = preds[i];
    // Three whole-relation queries, the rest subsets over every id.
    if (i >= 3) {
      q.rows = SpreadRows(total, std::min<uint64_t>(2048, total), &rng);
    }
    EngineResult res = engine.Execute(q);
    report->Check(SameRows(res.row_ids, oracle.Answer(ToOracle(q.predicates),
                                                      q.rows)),
                  "answer " + Str(i) + " after ingest differs from the oracle");
  }
}

void EmitMutableGauges(const HybridEngine& engine, Report* report) {
  HybridEngine::IngestStats st = engine.GetIngestStats();
  report->Set("mutable.generations",
              static_cast<double>(st.delta_generations), "count");
  report->Set("mutable.delta_worst_fp", st.delta_worst_fp, "ratio");
  report->Set("mutable.delta_bytes",
              engine.delta_index() == nullptr
                  ? 0.0
                  : static_cast<double>(engine.delta_index()->SizeInBytes()),
              "B");
}

std::vector<uint64_t> SpreadRows(uint64_t total, uint64_t count, Rng* rng) {
  std::vector<uint64_t> rows(count);
  double u = rng->Uniform();
  for (uint64_t i = 0; i < count; ++i) {
    rows[i] = static_cast<uint64_t>((static_cast<double>(i) + u) *
                                    static_cast<double>(total) /
                                    static_cast<double>(count));
  }
  return rows;
}

void LayerProbes(const HybridEngine& engine, const Oracle& oracle,
                 const std::vector<BenchQuery>& queries,
                 const ProbeOptions& options, Report* report) {
  std::unique_ptr<abitmap::util::ThreadPool> pool;
  if (options.threads > 1) {
    pool = std::make_unique<abitmap::util::ThreadPool>(options.threads);
  }
  size_t m = std::min<size_t>(kProbeQueries, queries.size());
  const AbIndex& ab = engine.ab_index();

  if (options.probe_engine) {
    EngineTally tally;
    for (size_t i = 0; i < m; ++i) {
      EngineResult res;
      {
        Span span("engine.HybridEngine::Execute", i + 1);
        res = engine.Execute(queries[i].query);
      }
      tally.Add(res);
      report->Check(SameRows(res.row_ids, queries[i].expected),
                    "probe query " + Str(i) + " differs from the oracle");
    }
    tally.Emit(report);
  }

  for (size_t i = 0; i < m && options.ab_routed; ++i) {
    BitmapQuery bq = ToBins(oracle, queries[i].query);
    uint64_t n = bq.rows.empty() ? engine.base_rows() : bq.rows.size();
    abitmap::obs::QueryTrace trace;
    std::vector<bool> bits;
    {
      Span span("core.AbIndex::Evaluate", i + 1);
      if (pool != nullptr && n >= kParallelMinRows) {
        bits = ab.EvaluateParallel(bq, pool.get(), &trace);
      } else if (n >= kBatchedMinRows) {
        bits = ab.EvaluateBatched(bq, &trace);
      } else {
        bits = ab.Evaluate(bq);
      }
    }
    report->Check(CoversExpected(bits, bq.rows, queries[i].expected),
                  "AbIndex evaluation " + Str(i) + " has false negatives");
  }

  for (size_t i = 0; i < m; ++i) {
    BitmapQuery bq = ToBins(oracle, queries[i].query);
    std::vector<bool> bits;
    {
      Span span("exact.ExactIndex::Evaluate", i + 1);
      bits = engine.exact_index().Evaluate(bq);
    }
    report->Check(CoversExpected(bits, bq.rows, queries[i].expected),
                  "ExactIndex evaluation " + Str(i) + " misses matching rows");
  }

  // The probe keys the queries' AB evaluation hashes: every (row, bin)
  // cell of every queried range, at most kMaxKeys of them.
  constexpr size_t kMaxKeys = 1 << 18;
  const abitmap::bitmap::ColumnMapping& mapping = ab.mapping();
  abitmap::ab::CellMapper mapper =
      abitmap::ab::CellMapper::RowAndColumn(mapping.num_columns());
  std::vector<std::vector<uint64_t>> keys(oracle.num_attrs());
  std::vector<std::vector<abitmap::hash::CellRef>> cells(oracle.num_attrs());
  size_t total_keys = 0;
  for (size_t i = 0; i < m && total_keys < kMaxKeys; ++i) {
    BitmapQuery bq = ToBins(oracle, queries[i].query);
    if (bq.rows.empty()) {
      bq.rows = abitmap::bitmap::RowRange(
          0, std::min<uint64_t>(engine.base_rows(), 4096) - 1);
    }
    for (const abitmap::bitmap::AttributeRange& range : bq.ranges) {
      for (uint32_t b = range.lo_bin; b <= range.hi_bin; ++b) {
        uint32_t gcol = mapping.GlobalColumn(range.attr, b);
        for (uint64_t r : bq.rows) {
          if (total_keys >= kMaxKeys) break;
          keys[range.attr].push_back(mapper.Key(r, gcol));
          cells[range.attr].push_back({r, gcol});
          ++total_keys;
        }
      }
    }
  }
  uint64_t probes = 0, checksum = 0;
  std::vector<uint64_t> out;
  {
    Span span("hash.HashFamily::ProbesBatch");
    for (uint32_t a = 0; a < oracle.num_attrs(); ++a) {
      const abitmap::ab::ApproximateBitmap& f = ab.filter(a);
      size_t k = static_cast<size_t>(f.k());
      constexpr size_t kWindow = abitmap::ab::ApproximateBitmap::kBatchWindow;
      out.resize(kWindow * k);
      for (size_t i = 0; i < keys[a].size(); i += kWindow) {
        size_t w = std::min(kWindow, keys[a].size() - i);
        f.family().ProbesBatch(&keys[a][i], &cells[a][i], w, k, f.size_bits(),
                               out.data());
        checksum += out[0] ^ out[w * k - 1];
        probes += w * k;
      }
    }
  }
  std::printf("info hash_probe_checksum=%llu\n",
              static_cast<unsigned long long>(checksum));

  abitmap::ab::AbConfig config = EngineOptions(options.threads).ab;
  config.build_strategy = options.build_strategy;
  std::printf("info build_strategy=%s threads=%d\n",
              abitmap::ab::BuildStrategyName(AbIndex::ChooseBuildStrategy(
                  engine.dataset(), config, options.threads)),
              options.threads);
  {
    Span span("core.AbIndex::BuildParallel");
    AbIndex rebuilt = AbIndex::BuildParallel(engine.dataset(), config,
                                             pool.get());
    report->Check(rebuilt.SizeInBytes() == engine.AbSizeBytes(),
                  "rebuilt AB size differs from the engine's");
  }
  abitmap::bitmap::BitmapTable table = [&] {
    Span span("bitmap.BitmapTable::Build");
    return abitmap::bitmap::BitmapTable::Build(engine.dataset());
  }();
  {
    Span span("exact.ExactIndex::Build");
    abitmap::engine::ExactIndex rebuilt =
        abitmap::engine::ExactIndex::Build(table, pool.get(), "auto");
    report->Check(rebuilt.SizeInBytes() == engine.ExactSizeBytes(),
                  "rebuilt exact index size differs from the engine's");
  }

  std::map<std::string, SpanTotals> spans = SpanSummary();
  if (options.probe_engine) {
    report->Set("engine.execute_us",
                SpanMeanUs(spans, "engine.HybridEngine::Execute"), "us");
  }
  report->Set("core.eval_us", SpanMeanUs(spans, "core.AbIndex::Evaluate"),
              "us");
  report->Set("exact.eval_us",
              SpanMeanUs(spans, "exact.ExactIndex::Evaluate"), "us");
  auto hash_it = spans.find("hash.HashFamily::ProbesBatch");
  if (hash_it != spans.end() && probes > 0) {
    report->Set("hash.ns_per_probe",
                static_cast<double>(hash_it->second.total_ns) /
                    static_cast<double>(probes),
                "ns");
  }
  report->Set("core.build_s",
              SpanMeanUs(spans, "core.AbIndex::BuildParallel") / 1e6, "s");
  report->Set("exact.build_s",
              SpanMeanUs(spans, "exact.ExactIndex::Build") / 1e6, "s");
}

void EmitIngestSpans(Report* report) {
  std::map<std::string, SpanTotals> spans = SpanSummary();
  report->Set("ingest.row_us", SpanMeanUs(spans, "engine.IngestRow"), "us");
  report->Set("ingest.delete_us", SpanMeanUs(spans, "engine.DeleteRow"),
              "us");
}

void EmitIndexSizes(const HybridEngine& engine, Report* report) {
  report->Set("index_bytes",
              static_cast<double>(engine.AbSizeBytes() +
                                  engine.ExactSizeBytes()),
              "B");
  report->Set("ab.bytes", static_cast<double>(engine.AbSizeBytes()), "B");
  report->Set("exact.bytes", static_cast<double>(engine.ExactSizeBytes()),
              "B");
  const auto& counts = engine.exact_index().choice_counts();
  report->Set("exact.cols_wah", static_cast<double>(counts[0]), "count");
  report->Set("exact.cols_bbc", static_cast<double>(counts[1]), "count");
  report->Set("exact.cols_roaring", static_cast<double>(counts[2]), "count");
  report->Set("exact.cols_ab", static_cast<double>(counts[3]), "count");
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},   {"qps", "1/s"},
      {"p50_us", "us"},   {"index_bytes", "B"},
      {"ingest_rows_per_s", "1/s"},
  };
  return kMetrics;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"serve.decode_us", "us"},
      {"serve.validate_us", "us"},
      {"serve.queue_us", "us"},
      {"serve.batch_us", "us"},
      {"serve.engine_us", "us"},
      {"serve.verify_us", "us"},
      {"serve.transport_us", "us"},
      {"serve.batch_size", "count"},
      {"serve.dedup_frac", "ratio"},
      {"serve.cpu_us_per_query", "us"},
      {"client.p99_us", "us"},
      {"engine.execute_us", "us"},
      {"engine.verify_us", "us"},
      {"engine.candidates_per_match", "ratio"},
      {"engine.ab_routed_frac", "ratio"},
      {"core.eval_us", "us"},
      {"core.cells_probed_per_query", "count"},
      {"core.short_circuit_frac", "ratio"},
      {"core.observed_fp", "ratio"},
      {"core.predicted_fp", "ratio"},
      {"core.build_s", "s"},
      {"hash.ns_per_probe", "ns"},
      {"exact.eval_us", "us"},
      {"exact.build_s", "s"},
      {"ab.bytes", "B"},
      {"exact.bytes", "B"},
      {"exact.cols_wah", "count"},
      {"exact.cols_bbc", "count"},
      {"exact.cols_roaring", "count"},
      {"exact.cols_ab", "count"},
      {"ingest.row_us", "us"},
      {"ingest.delete_us", "us"},
      {"mutable.generations", "count"},
      {"mutable.delta_worst_fp", "ratio"},
      {"mutable.delta_bytes", "B"},
      {"obs.trace_overhead_frac", "ratio"},
  };
  return kMetrics;
}

}  // namespace perfbench
