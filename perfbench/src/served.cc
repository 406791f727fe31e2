// served_subset: a QueryServer in this process on loopback with
// tools/ab_serve's defaults, driven by a closed loop of two binary-protocol
// connections over zipf-skewed AB-routed subset templates. Every response's
// row ids are checked against the oracle.

#include <unistd.h>

#include <array>
#include <memory>
#include <string>
#include <thread>

#include "bench.h"
#include "layers.h"
#include "obs/stats.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/workload.h"
#include "spans.h"
#include "util/net.h"

namespace perfbench {

using abitmap::engine::HybridEngine;
using abitmap::obs::Counter;
namespace serve = abitmap::serve;

namespace {

constexpr int kConnections = 2;
/// tools/ab_serve's default pool (one engine thread per core) lowers and
/// unsettles 2-connection throughput on a 4-core host: the pool workers,
/// the dispatcher, two epoll workers and the two clients oversubscribe
/// the cores. One engine thread is both faster and steadier (README).
constexpr int kEngineThreads = 1;
constexpr size_t kTemplates = 64;
constexpr double kZipfTheta = 1.05;
/// Echoed stages: decode, validate, queue, batch, engine, verify, total.
constexpr size_t kStages = 7;

struct ClientOut {
  std::vector<double> lat_us;
  std::vector<std::array<double, kStages>> stages_us;
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
};

/// Sends one frame and reads until one response frame decodes.
bool RoundTrip(int fd, const std::string& frame, std::string* buffer,
               serve::QueryResponse* response) {
  if (!abitmap::util::net::SendAll(fd, frame.data(), frame.size())) {
    return false;
  }
  char chunk[65536];
  for (;;) {
    size_t consumed = 0;
    serve::DecodeStatus st = serve::DecodeResponseFrame(
        reinterpret_cast<const uint8_t*>(buffer->data()), buffer->size(),
        64u << 20, response, &consumed);
    if (st == serve::DecodeStatus::kOk) {
      buffer->erase(0, consumed);
      return true;
    }
    if (st == serve::DecodeStatus::kMalformed) return false;
    ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return false;
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

void Client(uint16_t port, const std::vector<serve::QueryRequest>& templates,
            const std::vector<BenchQuery>& queries, int index, uint64_t seed,
            uint64_t end_ns, bool timings, ClientOut* out) {
  auto fd = abitmap::util::net::ConnectLoopback(port);
  if (!fd.ok()) {
    ++out->failed;
    return;
  }
  abitmap::util::net::SetNoDelay(fd.value());
  abitmap::util::net::SetRecvTimeout(fd.value(), 10000);
  serve::ZipfSampler zipf(templates.size(), kZipfTheta,
                          seed * 7919 + static_cast<uint64_t>(index) + 1);
  std::string buffer;
  uint32_t next_id = 1;
  while (NowNs() < end_ns) {
    size_t t = zipf.Next();
    serve::QueryRequest request = templates[t];
    request.id = next_id++;
    request.want_timings = timings;
    std::string frame = serve::EncodeQueryFrame(request);
    serve::QueryResponse response;
    uint64_t start = NowNs();
    bool sent;
    {
      Span span("client.request",
                (static_cast<uint64_t>(index) << 32) | request.id);
      sent = RoundTrip(fd.value(), frame, &buffer, &response);
    }
    uint64_t done = NowNs();
    if (!sent || response.id != request.id) {
      ++out->failed;
      break;  // the connection is unusable
    }
    if (response.status != serve::StatusCode::kOk) {
      ++out->failed;
      continue;
    }
    ++out->ok;
    out->lat_us.push_back(static_cast<double>(done - start) / 1e3);
    if (response.count != queries[t].expected.size() ||
        !SameRows(response.row_ids, queries[t].expected)) {
      ++out->wrong;
    }
    if (response.timings.has) {
      const serve::StageTimings& s = response.timings;
      out->stages_us.push_back(
          {s.decode_ns / 1e3, s.validate_ns / 1e3, s.queue_ns / 1e3,
           s.batch_ns / 1e3, s.engine_ns / 1e3, s.verify_ns / 1e3,
           s.total_ns / 1e3});
    }
  }
  ::close(fd.value());
}

struct Phase {
  uint64_t ok = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  double seconds = 0;
  uint64_t cpu_ns = 0;
  std::vector<double> lat_us;
  std::vector<std::array<double, kStages>> stages_us;
  abitmap::obs::StatsSnapshot before, after;
  uint64_t delta(Counter c) const {
    return after.counter(c) - before.counter(c);
  }
};

Phase RunPhase(uint16_t port, const std::vector<serve::QueryRequest>& templates,
               const std::vector<BenchQuery>& queries, uint64_t seed,
               double seconds, bool traced) {
  Phase phase;
  std::vector<ClientOut> outs(kConnections);
  phase.before = abitmap::obs::SnapshotStats();
  uint64_t cpu0 = ProcessCpuNs();
  uint64_t start = NowNs();
  uint64_t end = start + static_cast<uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back(Client, port, std::cref(templates), std::cref(queries),
                         c, seed, end, traced, &outs[c]);
  }
  for (std::thread& t : threads) t.join();
  phase.seconds = static_cast<double>(NowNs() - start) / 1e9;
  phase.cpu_ns = ProcessCpuNs() - cpu0;
  phase.after = abitmap::obs::SnapshotStats();
  for (const ClientOut& o : outs) {
    phase.ok += o.ok;
    phase.failed += o.failed;
    phase.wrong += o.wrong;
    phase.lat_us.insert(phase.lat_us.end(), o.lat_us.begin(), o.lat_us.end());
    phase.stages_us.insert(phase.stages_us.end(), o.stages_us.begin(),
                           o.stages_us.end());
  }
  return phase;
}

void Account(const Phase& phase, Report* report) {
  report->attempted += phase.ok + phase.failed;
  report->failed += phase.failed;
  report->Check(phase.wrong == 0, std::to_string(phase.wrong) +
                                      " served answers differ from the oracle");
}

}  // namespace

void RunServedSubset(const Args& args, Report* report) {
  const uint64_t rows = args.smoke ? 20000 : 200000;
  const int setup_reps = args.smoke ? 2 : 5;
  const double warmup_s = args.smoke ? 0.2 : 1.0;

  Columns columns = SeedColumns(rows, args.seed);
  Oracle oracle(columns);
  oracle.BinAttributes(EngineOptions(kEngineThreads).binning.bins);

  serve::TemplateOptions topt;
  topt.num_templates = kTemplates;
  topt.row_fraction = 0.01;
  topt.count_only = false;
  // The template set keeps MakeQueryTemplates' own seed on every run: the
  // zipf head carries a fifth of the traffic, so a per-seed template set
  // would make the hot query's cost, not the code, decide the figures.
  // --seed varies the table and the request stream.
  std::vector<serve::QueryRequest> templates =
      serve::MakeQueryTemplates(rows, topt);
  std::vector<BenchQuery> queries;
  for (const serve::QueryRequest& t : templates) {
    BenchQuery q;
    q.query.predicates = t.predicates;
    q.query.rows = t.rows;
    queries.push_back(std::move(q));
  }
  ComputeExpected(oracle, &queries);

  // Set-up: engine build plus server start, repeated; the last one serves.
  // Server options are tools/ab_serve's defaults: batching on, 2 workers.
  serve::QueryServer::Options server_options;
  std::unique_ptr<HybridEngine> engine;
  std::unique_ptr<serve::QueryServer> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < setup_reps; ++rep) {
    if (server != nullptr) server->Stop();
    server.reset();
    engine.reset();
    abitmap::engine::Table table = TableFromColumns(columns);
    uint64_t t0 = NowNs();
    engine = std::make_unique<HybridEngine>(
        HybridEngine::Build(std::move(table), EngineOptions(kEngineThreads)));
    server = std::make_unique<serve::QueryServer>(engine.get(), server_options);
    abitmap::util::Status st = server->Start();
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!report->Check(st.ok(), "QueryServer::Start: " + st.message())) return;
  }
  report->Set("setup_s", Median(setup_s), "s");
  EmitIndexSizes(*engine, report);
  uint16_t port = server->port();

  Phase warm = RunPhase(port, templates, queries, args.seed + 1000, warmup_s,
                        false);
  report->Check(warm.wrong == 0, "served answers differ during warm-up");
  Phase measured = RunPhase(port, templates, queries, args.seed, args.seconds,
                            false);
  Account(measured, report);
  const double qps = static_cast<double>(measured.ok) / measured.seconds;
  report->Set("qps", qps, "1/s");
  report->Set("p50_us", Median(measured.lat_us), "us");

  if (args.trace) {
    SetTracing(true);
    Phase traced = RunPhase(port, templates, queries, args.seed + 1,
                            args.seconds, true);
    Account(traced, report);
    double qps_traced = static_cast<double>(traced.ok) / traced.seconds;
    report->Set("obs.trace_overhead_frac", (qps - qps_traced) / qps, "ratio");
    std::vector<double> all = measured.lat_us;
    all.insert(all.end(), traced.lat_us.begin(), traced.lat_us.end());
    report->Set("client.p99_us", Quantile(all, 0.99), "us");

    static const char* kStageNames[kStages - 1] = {
        "serve.decode_us", "serve.validate_us", "serve.queue_us",
        "serve.batch_us",  "serve.engine_us",   "serve.verify_us"};
    std::array<double, kStages> sums{};
    for (const auto& s : traced.stages_us) {
      for (size_t i = 0; i < kStages; ++i) sums[i] += s[i];
    }
    double n =
        static_cast<double>(std::max<size_t>(traced.stages_us.size(), 1));
    for (size_t i = 0; i + 1 < kStages; ++i) {
      report->Set(kStageNames[i], sums[i] / n, "us");
    }
    double client_sum = 0;
    for (double v : traced.lat_us) client_sum += v;
    double client_n =
        static_cast<double>(std::max<size_t>(traced.lat_us.size(), 1));
    report->Set("serve.transport_us",
                client_sum / client_n - sums[kStages - 1] / n, "us");
    uint64_t batches = traced.delta(Counter::kServeBatches);
    uint64_t batch_queries = traced.delta(Counter::kServeBatchQueries);
    report->Set("serve.batch_size",
                batches == 0 ? 0.0
                             : static_cast<double>(batch_queries) /
                                   static_cast<double>(batches),
                "count");
    report->Set("serve.dedup_frac",
                batch_queries == 0
                    ? 0.0
                    : static_cast<double>(
                          traced.delta(Counter::kEngineBatchDedupHits)) /
                          static_cast<double>(batch_queries),
                "ratio");
    report->Set("serve.cpu_us_per_query",
                static_cast<double>(traced.cpu_ns) / 1e3 /
                    static_cast<double>(std::max<uint64_t>(traced.ok, 1)),
                "us");
  }
  server->Stop();

  CheckAbIndex(*engine, oracle, args.seed, args.smoke, report);
  CheckCandidates(*engine, queries, kTemplates, report);
  if (args.trace) {
    ProbeOptions probe;
    probe.threads = kEngineThreads;
    probe.probe_engine = true;
    LayerProbes(*engine, oracle, queries, probe, report);
  }
  IngestRounds(columns, args.seed, args.smoke ? 0.5 : 8.0, args.smoke,
               report);
  if (args.trace) EmitIngestSpans(report);
}

}  // namespace perfbench
