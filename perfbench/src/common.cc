#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "util/logging.h"

namespace perfbench {

using abitmap::engine::HybridEngine;
using abitmap::engine::Table;
using abitmap::engine::ValuePredicate;

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

const Metric* Report::Find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::Fail(const std::string& what) {
  correct = false;
  // Print the first few; a systematic fault would otherwise flood stderr.
  if (++failures <= 20) {
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  if (rank > 0) --rank;
  rank = std::min(rank, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

HybridEngine::Options EngineOptions(int num_threads) {
  HybridEngine::Options options;
  options.binning.bins = 16;
  options.ab.alpha = 16;
  options.ab.level = abitmap::ab::Level::kPerAttribute;
  options.ab.scheme = abitmap::ab::HashScheme::kIndependent;
  options.num_threads = num_threads;
  return options;
}

Table TableFromColumns(const Columns& columns) {
  auto table = Table::FromColumns("orders", {"price", "quantity", "rating"},
                                  columns);
  AB_CHECK(table.ok());
  return std::move(table).value();
}

std::vector<std::vector<ValuePredicate>> StratifiedPredicates(size_t count,
                                                             uint64_t seed) {
  static const double kHi[3] = {100.0, 49.0, 6.0};
  Rng rng(seed);
  // One stratified stream per random draw: a seeded permutation of the
  // strata, jittered inside each stratum.
  auto stream = [&]() {
    std::vector<double> u(count);
    for (size_t i = 0; i < count; ++i) u[i] = static_cast<double>(i);
    for (size_t i = count; i > 1; --i) std::swap(u[i - 1], u[rng.Below(i)]);
    for (double& v : u) v = (v + rng.Uniform()) / static_cast<double>(count);
    return u;
  };
  std::vector<double> how_many = stream();
  std::vector<double> attr[2] = {stream(), stream()};
  std::vector<double> width[2] = {stream(), stream()};
  std::vector<double> where[2] = {stream(), stream()};
  std::vector<std::vector<ValuePredicate>> out(count);
  for (size_t i = 0; i < count; ++i) {
    out[i].resize(how_many[i] < 0.5 ? 1 : 2);
    for (size_t j = 0; j < out[i].size(); ++j) {
      ValuePredicate& p = out[i][j];
      p.attr = std::min<uint32_t>(2, static_cast<uint32_t>(attr[j][i] * 3));
      double span = kHi[p.attr];
      double w = (0.1 + 0.4 * width[j][i]) * span;
      p.lo = where[j][i] * (span - w);
      p.hi = p.lo + w;
    }
  }
  return out;
}

std::vector<double> RandomRow(Rng* rng) {
  // Box-Muller for the rating column's N(3, 1).
  double u1 = std::max(rng->Uniform(), 1e-12);
  double u2 = rng->Uniform();
  double normal =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  return {rng->Uniform() * 100.0, static_cast<double>(rng->Below(50)),
          3.0 + normal};
}

}  // namespace perfbench
