// perfbench: the repository's benchmark binary. Runs one workload for a
// fixed time from a seed and prints the host record, every metric by name
// with its unit, and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) report the per-layer metrics and write their spans.
//
//   perfbench --workload served_subset --seed 1 --seconds 10 --trace 0
//             [--smoke] [--trace-out spans.jsonl] [--git-sha SHA]

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "host.h"
#include "layers.h"
#include "spans.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Args;
using perfbench::Report;

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload served_subset|subset_large|"
               "scan_exact|ingest_churn\n"
               "                 --seed N --seconds S --trace 0|1 [--smoke]\n"
               "                 [--trace-out PATH] [--git-sha SHA]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--git-sha") {
      args->git_sha = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

std::string Number(double v) {
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  struct Workload {
    const char* name;
    void (*run)(const Args&, Report*);
  };
  static const Workload kWorkloads[] = {
      {"served_subset", perfbench::RunServedSubset},
      {"subset_large", perfbench::RunSubsetLarge},
      {"scan_exact", perfbench::RunScanExact},
      {"ingest_churn", perfbench::RunIngestChurn},
  };
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    Usage();
    return 2;
  }

  std::string host = perfbench::HostRecordJson(PERFBENCH_BUILD_TYPE,
                                               args.git_sha);
  std::printf("host %s\n", host.c_str());
  std::printf("run workload=%s seed=%llu seconds=%s trace=%d smoke=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              Number(args.seconds).c_str(), args.trace ? 1 : 0,
              args.smoke ? 1 : 0);
  std::fflush(stdout);

  Report report;
  workload->run(args, &report);
  perfbench::SetTracing(false);

  if (args.trace && !args.trace_out.empty()) {
    if (!perfbench::WriteSpans(args.trace_out, host)) {
      report.Fail("cannot write spans to " + args.trace_out);
    } else {
      std::printf("spans %s kept=%llu dropped=%llu\n", args.trace_out.c_str(),
                  static_cast<unsigned long long>(perfbench::SpansKept()),
                  static_cast<unsigned long long>(perfbench::SpansDropped()));
    }
  }
  if (args.trace) {
    for (const auto& [name, t] : perfbench::SpanSummary()) {
      std::printf("span %-32s count=%llu mean_us=%.3f self_us=%.3f\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.mean_us(),
                  t.count == 0 ? 0.0
                               : static_cast<double>(t.self_ns) / 1e3 /
                                     static_cast<double>(t.count));
    }
  }

  // End-to-end metrics must all be measured; per-layer metrics of layers
  // a workload never reaches read 0.
  const auto& specs = args.trace ? perfbench::PerLayerMetrics()
                                 : perfbench::EndToEndMetrics();
  std::string metrics;
  for (const perfbench::MetricSpec& spec : specs) {
    const perfbench::Metric* m = report.Find(spec.name);
    double value = m == nullptr ? 0.0 : m->value;
    if (!args.trace && (m == nullptr || !(value > 0))) {
      report.Fail(std::string("end-to-end metric not measured: ") + spec.name);
    }
    if (!std::isfinite(value)) {
      report.Fail(std::string("metric is not finite: ") + spec.name);
      value = 0;
    }
    std::printf("metric %-30s %s %s\n", spec.name, Number(value).c_str(),
                spec.unit);
    if (!metrics.empty()) metrics += ", ";
    metrics += JsonString(spec.name) + ": {\"value\": " + Number(value) +
               ", \"unit\": " + JsonString(spec.unit) + "}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  return 0;
}
