#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

// Pieces every workload shares: seeded inputs, the oracle checks, the
// streaming-ingest operation stream, and the traced run's per-layer
// probes, which time the benchmark's own calls into each module's public
// functions.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/hybrid_engine.h"
#include "oracle.h"

namespace perfbench {

/// MakeSeedTable's columns for (rows, seed).
Columns SeedColumns(uint64_t rows, uint64_t seed);

std::vector<OraclePredicate> ToOracle(
    const std::vector<abitmap::engine::ValuePredicate>& preds);

/// A query with its oracle answer over the base table.
struct BenchQuery {
  abitmap::engine::EngineQuery query;
  std::vector<uint64_t> expected;
};

/// Fills `expected` for each query from the oracle.
void ComputeExpected(const Oracle& oracle, std::vector<BenchQuery>* queries);

/// True when `got` holds exactly the ids of `want` (ascending).
bool SameRows(std::vector<uint64_t> got, const std::vector<uint64_t>& want);

/// Engine-layer tallies from result traces.
struct EngineTally {
  uint64_t queries = 0;
  uint64_t ab_routed = 0;
  uint64_t candidates = 0;
  uint64_t verified = 0;
  uint64_t cells_probed = 0;
  uint64_t rows_evaluated = 0;
  uint64_t rows_short_circuited = 0;
  uint64_t verify_ns = 0;
  void Add(const abitmap::engine::EngineResult& result);
  /// engine.verify_us, engine.candidates_per_match, engine.ab_routed_frac,
  /// core.cells_probed_per_query, core.short_circuit_frac.
  void Emit(Report* report) const;
};

/// Checks the AB against the oracle: the engine's bins equal the oracle's,
/// every filter has the paper's size and k, AbSizeBytes() is their sum,
/// and no sampled set cell tests negative. The false-positive rate over a
/// seeded sample of unset cells is compared with the 6-sigma binomial band
/// of (1 - e^{-k/alpha})^k at the filter's effective alpha = n/s and
/// printed when outside it, without failing the run: the hash family's
/// excess puts it outside on some seeds only. Sets
/// core.observed_fp/predicted_fp.
void CheckAbIndex(const abitmap::engine::HybridEngine& engine,
                  const Oracle& oracle, uint64_t seed, bool smoke,
                  Report* report);

/// Approximate answers (exact = false) must contain the oracle's answer.
void CheckCandidates(const abitmap::engine::HybridEngine& engine,
                     const std::vector<BenchQuery>& queries, size_t limit,
                     Report* report);

/// A seeded ingest stream: inserts, with a delete of a random live row
/// (base or ingested) as every tenth operation. Deletes only name rows
/// the stream knows to be live, so every operation succeeds.
struct IngestStream {
  uint64_t base_rows = 0;
  std::vector<uint8_t> is_delete;  ///< per op
  std::vector<uint64_t> target;    ///< per op: delete target / new row id
  std::vector<double> values;      ///< 3 per op (inserts only)
  std::vector<uint64_t> insert_op; ///< per ingested row: its op index
  std::vector<uint64_t> delete_op; ///< per row id: op index or kNever
  uint64_t inserts = 0;
  static constexpr uint64_t kNever = ~uint64_t{0};
  size_t size() const { return is_delete.size(); }
};
IngestStream MakeIngestStream(uint64_t base_rows, uint64_t ops,
                              uint64_t seed);

/// Applies the stream to the oracle (appends and kills).
void ApplyToOracle(const IngestStream& stream, Oracle* oracle);

struct WriteOutcome {
  /// IngestRow calls and the writer's wall time for the whole stream,
  /// rebuild stalls included; ingest_rows_per_s is the sum of the first
  /// over the sum of the second, over every round of a run.
  uint64_t inserts = 0;
  double seconds = 0;
  uint64_t failed = 0;     ///< DeleteRow calls that returned false
  uint64_t wrong_ids = 0;  ///< IngestRow ids other than the stream's
};

/// Runs every op of `stream` on `engine` from the calling thread,
/// publishing the count of completed ops to `progress` (when non-null)
/// after each. Touches no Report, so it may run beside a reader thread.
WriteOutcome WriteStream(abitmap::engine::HybridEngine* engine,
                         const IngestStream& stream,
                         std::atomic<uint64_t>* progress);

/// Folds a WriteStream outcome into the report's counts and checks.
void ReportWrite(const WriteOutcome& w, const IngestStream& stream,
                 Report* report);

/// ingest_rows_per_s on the three query workloads, measured after their
/// query phase: whole rounds of one seeded stream, each written by one
/// writer (no reader) into a fresh single-threaded engine over the first
/// rows of the workload's table, for about `seconds`. Reports inserts per
/// second of writer wall time over every round, checks TotalRows() and
/// answers after each round against the oracle, and records the mutable.*
/// gauges.
void IngestRounds(const Columns& columns, uint64_t seed, double seconds,
                  bool smoke, Report* report);

/// Exact answers after churn equal the oracle over its live rows, and the
/// engine counts every committed row.
void CheckAfterChurn(const abitmap::engine::HybridEngine& engine,
                     const Oracle& oracle, uint64_t seed, Report* report);

/// mutable.generations, mutable.delta_worst_fp, mutable.delta_bytes.
void EmitMutableGauges(const abitmap::engine::HybridEngine& engine,
                       Report* report);

/// Rows spread evenly over [0, total) with a seeded offset: `count`
/// sorted distinct ids, the shape of a subset over the whole id range.
std::vector<uint64_t> SpreadRows(uint64_t total, uint64_t count, Rng* rng);

struct ProbeOptions {
  int threads = 1;          ///< the engine's thread count
  bool ab_routed = true;    ///< the workload's queries take the AB path
  bool probe_engine = false;///< also time HybridEngine::Execute here
  /// The engine's AB build strategy, for the BuildParallel probe.
  abitmap::ab::BuildStrategy build_strategy = abitmap::ab::BuildStrategy::kAuto;
};

/// The traced run's layer probes over the workload's queries: engine
/// execution (when asked), AbIndex evaluation on the engine's path for
/// the row count, ExactIndex evaluation, HashFamily::ProbesBatch over the
/// queries' probe keys, and one AbIndex::BuildParallel and
/// ExactIndex::Build at the engine's thread count.
void LayerProbes(const abitmap::engine::HybridEngine& engine,
                 const Oracle& oracle, const std::vector<BenchQuery>& queries,
                 const ProbeOptions& options, Report* report);

/// ingest.row_us and ingest.delete_us from the IngestRow/DeleteRow spans.
void EmitIngestSpans(Report* report);

/// index_bytes, ab.bytes, exact.bytes and the selector tally.
void EmitIndexSizes(const abitmap::engine::HybridEngine& engine,
                    Report* report);

/// Every metric BENCHMARK.json names, with its unit: end-to-end first.
struct MetricSpec {
  const char* name;
  const char* unit;
};
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
