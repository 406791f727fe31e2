#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

// The benchmark's independent reference. It knows nothing of BitVector,
// BitmapTable or the engine: answers come from brute force over flat
// arrays of the generated raw values, bins from its own equi-depth
// binning, and the filter size and false-positive rate from the paper's
// formulas, computed here.

#include <cstdint>
#include <vector>

namespace perfbench {

struct OraclePredicate {
  uint32_t attr = 0;
  double lo = 0;
  double hi = 0;
};

class Oracle {
 public:
  /// Raw values, one vector per attribute, all of one length.
  explicit Oracle(std::vector<std::vector<double>> columns);

  uint64_t num_rows() const { return num_rows_; }
  uint32_t num_attrs() const { return static_cast<uint32_t>(columns_.size()); }

  /// Appends one row (streaming ingest); its id is the old num_rows().
  void Append(const std::vector<double>& row);
  /// Marks a row deleted.
  void Kill(uint64_t row) { dead_[row] = 1; }

  bool Matches(uint64_t row, const std::vector<OraclePredicate>& preds) const;

  /// Live rows among `rows` (all rows when empty) whose values satisfy
  /// every predicate, in ascending order.
  std::vector<uint64_t> Answer(const std::vector<OraclePredicate>& preds,
                               const std::vector<uint64_t>& rows) const;

  /// Equi-depth bin boundaries over the base rows: boundary b sits at the
  /// value of sorted rank b*n/bins, clamped to be non-decreasing; a value
  /// equal to a boundary belongs to the bin above it.
  void BinAttributes(uint32_t bins);
  uint32_t BinOf(uint32_t attr, double value) const;
  uint32_t RowBin(uint64_t row, uint32_t attr) const {
    return BinOf(attr, columns_[attr][row]);
  }
  uint32_t bins() const { return bins_; }

  /// n = 2^ceil(log2(s * alpha)) bits: the paper's filter size for s set
  /// bits at size parameter alpha.
  static uint64_t FilterBits(uint64_t s, double alpha);
  /// The integer k (floor or ceil of alpha ln 2) minimising FpRate.
  static int OptimalK(double alpha);
  /// (1 - e^{-k/alpha})^k.
  static double FpRate(double alpha, int k);

 private:
  std::vector<std::vector<double>> columns_;
  std::vector<uint8_t> dead_;
  uint64_t num_rows_ = 0;
  uint32_t bins_ = 0;
  std::vector<std::vector<double>> boundaries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
