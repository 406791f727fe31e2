#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

Oracle::Oracle(std::vector<std::vector<double>> columns)
    : columns_(std::move(columns)),
      num_rows_(columns_.empty() ? 0 : columns_[0].size()) {
  dead_.assign(num_rows_, 0);
}

void Oracle::Append(const std::vector<double>& row) {
  for (uint32_t a = 0; a < num_attrs(); ++a) columns_[a].push_back(row[a]);
  dead_.push_back(0);
  ++num_rows_;
}

bool Oracle::Matches(uint64_t row,
                     const std::vector<OraclePredicate>& preds) const {
  for (const OraclePredicate& p : preds) {
    double v = columns_[p.attr][row];
    if (v < p.lo || v > p.hi) return false;
  }
  return true;
}

std::vector<uint64_t> Oracle::Answer(const std::vector<OraclePredicate>& preds,
                                     const std::vector<uint64_t>& rows) const {
  std::vector<uint64_t> out;
  auto consider = [&](uint64_t r) {
    if (dead_[r] == 0 && Matches(r, preds)) out.push_back(r);
  };
  if (rows.empty()) {
    for (uint64_t r = 0; r < num_rows_; ++r) consider(r);
  } else {
    for (uint64_t r : rows) consider(r);
    std::sort(out.begin(), out.end());
  }
  return out;
}

void Oracle::BinAttributes(uint32_t bins) {
  bins_ = bins;
  boundaries_.assign(num_attrs(), {});
  for (uint32_t a = 0; a < num_attrs(); ++a) {
    std::vector<double> sorted(columns_[a].begin(),
                               columns_[a].begin() + num_rows_);
    std::sort(sorted.begin(), sorted.end());
    std::vector<double>& b = boundaries_[a];
    for (uint32_t i = 1; i < bins; ++i) {
      double v = sorted[(static_cast<uint64_t>(i) * sorted.size()) / bins];
      if (!b.empty() && v < b.back()) v = b.back();
      b.push_back(v);
    }
  }
}

uint32_t Oracle::BinOf(uint32_t attr, double value) const {
  const std::vector<double>& b = boundaries_[attr];
  return static_cast<uint32_t>(
      std::upper_bound(b.begin(), b.end(), value) - b.begin());
}

uint64_t Oracle::FilterBits(uint64_t s, double alpha) {
  double target = std::ceil(static_cast<double>(s) * alpha);
  uint64_t n = 1;
  while (static_cast<double>(n) < target) n <<= 1;
  return n;
}

int Oracle::OptimalK(double alpha) {
  int lo = static_cast<int>(std::floor(alpha * std::log(2.0)));
  if (lo < 1) return 1;
  return FpRate(alpha, lo) <= FpRate(alpha, lo + 1) ? lo : lo + 1;
}

double Oracle::FpRate(double alpha, int k) {
  return std::pow(1.0 - std::exp(-static_cast<double>(k) / alpha), k);
}

}  // namespace perfbench
