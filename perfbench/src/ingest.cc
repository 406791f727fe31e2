// ingest_churn: one writer streams IngestRow calls (a DeleteRow of a
// random live row every tenth op) while one reader issues AB-routed
// subsets spread over every committed id. The same seeded stream runs in
// whole rounds, each on a freshly built engine, so every round crosses
// the same delta rebuilds. Readers are checked against what the writer
// had provably finished before and not started after each query; after
// each round quiesces every answer must equal the oracle's.

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "bench.h"
#include "layers.h"
#include "spans.h"

namespace perfbench {

using abitmap::engine::EngineQuery;
using abitmap::engine::EngineResult;
using abitmap::engine::HybridEngine;
using abitmap::engine::ValuePredicate;

namespace {

struct ReaderOut {
  uint64_t queries = 0;
  uint64_t violations = 0;
  double seconds = 0;
  std::vector<double> lat_us;
  EngineTally tally;
};

/// The race-aware check of one reader answer. Op i completed before the
/// query when i < p0 (progress read before it) and had not started when
/// i > p1 (progress read after it). A matching row must appear when it
/// was inserted before the query and not deleted by the end of it; it may
/// appear only when it was inserted by the end and not deleted before.
bool AnswerConsistent(const IngestStream& stream, const Oracle& base,
                      const std::vector<OraclePredicate>& preds,
                      const std::vector<uint64_t>& rows,
                      std::vector<uint64_t> got, uint64_t p0, uint64_t p1) {
  std::sort(got.begin(), got.end());
  size_t at = 0;
  for (uint64_t r : rows) {
    bool returned = at < got.size() && got[at] == r;
    if (returned) ++at;
    bool matches;
    uint64_t inserted_at = 0;  // base rows precede every op
    bool inserted_before = true;
    if (r < stream.base_rows) {
      matches = base.Matches(r, preds);
    } else {
      uint64_t local = r - stream.base_rows;
      inserted_at = stream.insert_op[local];
      inserted_before = inserted_at < p0;
      const double* v = &stream.values[3 * inserted_at];
      matches = true;
      for (const OraclePredicate& p : preds) {
        if (v[p.attr] < p.lo || v[p.attr] > p.hi) matches = false;
      }
    }
    uint64_t deleted_at = stream.delete_op[r];
    bool deleted = deleted_at != IngestStream::kNever;
    bool deleted_before = deleted && deleted_at < p0;
    bool deleted_by_end = deleted && deleted_at <= p1;
    bool inserted_by_end = r < stream.base_rows || inserted_at <= p1;
    bool must = matches && inserted_before && !deleted_by_end;
    bool may = matches && inserted_by_end && !deleted_before;
    if ((returned && !may) || (!returned && must)) return false;
  }
  return at == got.size();
}

void Reader(const HybridEngine& engine, const IngestStream& stream,
            const Oracle& base,
            const std::vector<std::vector<ValuePredicate>>& preds,
            uint64_t subset, uint64_t seed, size_t first_query,
            std::atomic<uint64_t>* progress, std::atomic<bool>* done,
            ReaderOut* out) {
  Rng rng(seed);
  uint64_t start = NowNs();
  while (!done->load(std::memory_order_acquire)) {
    uint64_t p0 = progress->load(std::memory_order_acquire);
    EngineQuery q;
    q.predicates = preds[(first_query + out->queries) % preds.size()];
    q.rows = SpreadRows(engine.TotalRows(), subset, &rng);
    uint64_t t0 = NowNs();
    EngineResult res;
    {
      Span span("engine.HybridEngine::Execute", out->queries + 1);
      res = engine.Execute(q);
    }
    out->lat_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    uint64_t p1 = progress->load(std::memory_order_acquire);
    out->tally.Add(res);
    if (!AnswerConsistent(stream, base, ToOracle(q.predicates), q.rows,
                          std::move(res.row_ids), p0, p1)) {
      ++out->violations;
    }
    ++out->queries;
  }
  out->seconds = static_cast<double>(NowNs() - start) / 1e9;
}

struct Totals {
  std::vector<double> setup_s;
  std::vector<double> lat_us;
  uint64_t inserts = 0;
  double writer_s = 0;
  std::vector<double> reader_qps;    ///< per round
  EngineTally tally;
};

}  // namespace

void RunIngestChurn(const Args& args, Report* report) {
  const uint64_t base_rows = args.smoke ? 20000 : 200000;
  const uint64_t ops = args.smoke ? 20000 : 100000;
  const uint64_t subset = args.smoke ? 512 : 2048;
  const int min_rounds = 5;

  Columns columns = SeedColumns(base_rows, args.seed);
  Oracle base(columns);
  base.BinAttributes(EngineOptions(1).binning.bins);
  IngestStream stream = MakeIngestStream(base_rows, ops, args.seed);
  Oracle final_state = base;
  ApplyToOracle(stream, &final_state);

  Rng rng(args.seed * 17 + 5);
  std::vector<std::vector<ValuePredicate>> preds =
      StratifiedPredicates(256, args.seed * 17 + 6);
  // Base-only subset queries for the checks and probes made before churn.
  std::vector<BenchQuery> base_queries(64);
  for (size_t i = 0; i < base_queries.size(); ++i) {
    base_queries[i].query.predicates = preds[i];
    base_queries[i].query.rows = SpreadRows(base_rows, subset, &rng);
  }
  ComputeExpected(base, &base_queries);

  uint64_t round_seed = args.seed * 1000;
  auto run_rounds = [&](double seconds, Totals* totals, bool first_phase) {
    uint64_t phase_start = NowNs();
    for (int round = 0;
         round < min_rounds ||
         static_cast<double>(NowNs() - phase_start) / 1e9 < seconds;
         ++round) {
      abitmap::engine::Table table = TableFromColumns(columns);
      uint64_t t0 = NowNs();
      HybridEngine engine =
          HybridEngine::Build(std::move(table), EngineOptions(1));
      totals->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (first_phase && round == 0) {
        EmitIndexSizes(engine, report);
        CheckAbIndex(engine, base, args.seed, args.smoke, report);
        CheckCandidates(engine, base_queries, base_queries.size(), report);
      }

      std::atomic<uint64_t> progress{0};
      std::atomic<bool> done{false};
      ReaderOut reader_out;
      std::thread reader(Reader, std::cref(engine), std::cref(stream),
                         std::cref(base), std::cref(preds), subset,
                         ++round_seed, totals->lat_us.size(), &progress, &done,
                         &reader_out);
      WriteOutcome w = WriteStream(&engine, stream, &progress);
      done.store(true, std::memory_order_release);
      reader.join();

      ReportWrite(w, stream, report);
      report->attempted += reader_out.queries;
      report->Check(reader_out.violations == 0,
                    std::to_string(reader_out.violations) +
                        " reader answers during churn are inconsistent with "
                        "the writer's progress");
      totals->inserts += w.inserts;
      totals->writer_s += w.seconds;
      totals->reader_qps.push_back(static_cast<double>(reader_out.queries) /
                                   reader_out.seconds);
      totals->lat_us.insert(totals->lat_us.end(), reader_out.lat_us.begin(),
                            reader_out.lat_us.end());
      totals->tally.queries += reader_out.tally.queries;
      totals->tally.ab_routed += reader_out.tally.ab_routed;
      totals->tally.candidates += reader_out.tally.candidates;
      totals->tally.verified += reader_out.tally.verified;
      totals->tally.cells_probed += reader_out.tally.cells_probed;
      totals->tally.rows_evaluated += reader_out.tally.rows_evaluated;
      totals->tally.rows_short_circuited +=
          reader_out.tally.rows_short_circuited;
      totals->tally.verify_ns += reader_out.tally.verify_ns;

      CheckAfterChurn(engine, final_state, args.seed + round, report);
      EmitMutableGauges(engine, report);
    }
  };

  Totals measured;
  run_rounds(args.seconds, &measured, true);
  // Every round runs the same operations, so reader throughput is the
  // median over rounds; ingest speed counts the writer's whole wall time,
  // rebuild stalls included, over every round.
  double qps = Median(measured.reader_qps);
  report->Set("setup_s", Median(measured.setup_s), "s");
  report->Set("qps", qps, "1/s");
  report->Set("p50_us", Median(measured.lat_us), "us");
  report->Set("ingest_rows_per_s",
              static_cast<double>(measured.inserts) / measured.writer_s,
              "1/s");


  if (args.trace) {
    SetTracing(true);
    Totals traced;
    run_rounds(args.seconds, &traced, false);
    double qps_traced = Median(traced.reader_qps);
    report->Set("obs.trace_overhead_frac", (qps - qps_traced) / qps, "ratio");
    std::vector<double> all = measured.lat_us;
    all.insert(all.end(), traced.lat_us.begin(), traced.lat_us.end());
    report->Set("client.p99_us", Quantile(all, 0.99), "us");
    traced.tally.Emit(report);
    auto spans = SpanSummary();
    report->Set("engine.execute_us",
                spans["engine.HybridEngine::Execute"].mean_us(), "us");
    EmitIngestSpans(report);
    HybridEngine engine =
        HybridEngine::Build(TableFromColumns(columns), EngineOptions(1));
    ProbeOptions probe;
    probe.threads = 1;
    LayerProbes(engine, base, base_queries, probe, report);
  }
}

}  // namespace perfbench
