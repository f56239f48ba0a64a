// Monotone preference (scoring) functions.
//
// The framework (Section 3 of the paper) supports any scoring function f
// that is monotone on every attribute: increasingly monotone dimensions
// prefer larger coordinates, decreasingly monotone ones prefer smaller
// coordinates. Monotonicity is what makes grid processing efficient: the
// score of the "best corner" of a rectangle R upper-bounds the score of
// every point inside R (maxscore(R), Section 3.1), and the cell traversal
// of the top-k computation module (Figure 6) expands cells in the
// direction of decreasing score.
//
// Three families used in the paper's evaluation are provided:
//   * LinearFunction        f(p) = sum_i a_i * x_i          (Figures 14-20)
//   * ProductFunction       f(p) = prod_i (a_i + x_i)       (Figure 21a/b)
//   * SumOfSquaresFunction  f(p) = sum_i a_i * x_i^2        (Figure 21c/d)
// plus MixedLinear examples with negative coefficients (Figure 7a) fall out
// of LinearFunction directly.

#ifndef TOPKMON_COMMON_SCORING_H_
#define TOPKMON_COMMON_SCORING_H_

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/geometry.h"

namespace topkmon {

/// Per-dimension monotonicity direction of a scoring function.
enum class Monotonicity : std::int8_t {
  kIncreasing = +1,  ///< larger coordinate => larger (or equal) score
  kDecreasing = -1,  ///< larger coordinate => smaller (or equal) score
};

/// Abstract monotone scoring function over the unit workspace.
///
/// Implementations must be monotone per dimension as reported by
/// `direction(i)`; the grid traversal and maxscore bounds rely on it.
/// Functions are immutable and thread-compatible after construction.
class ScoringFunction {
 public:
  virtual ~ScoringFunction() = default;

  /// Dimensionality of the attribute space this function scores.
  virtual int dim() const = 0;

  /// The score of point `p`. Requires p.dim() == dim().
  virtual double Score(const Point& p) const = 0;

  /// Batch-scores `n` points laid out lane-major: lanes[d][i] is
  /// coordinate d of point i; writes the scores to out[0..n). Must be
  /// bitwise identical to scoring each reconstructed point with Score()
  /// — the engines' differential tests rely on it — so overrides have to
  /// apply the exact floating-point operation order of Score(). The
  /// default does exactly that via reconstruction; the built-in families
  /// override it with contiguous auto-vectorizable per-lane loops.
  virtual void ScoreLanes(const double* const* lanes, std::size_t n,
                          double* out) const;

  /// Monotonicity direction along dimension `i` (0-based).
  virtual Monotonicity direction(int i) const = 0;

  /// Human-readable formula, e.g. "0.31*x1 + 0.82*x2".
  virtual std::string ToString() const = 0;

  /// Whether the function is monotone per dimension over the whole unit
  /// workspace, as `direction(i)` reports. The grid engines' maxscore
  /// bounds (BestCorner / MaxScore) are only valid when this holds; the
  /// piecewise-monotone wrapper (core/piecewise.h) overrides this to
  /// false, and engines that rely on corner bounds refuse such functions
  /// at registration.
  virtual bool IsMonotone() const { return true; }

  /// The corner of `r` that maximizes this function: the hi corner on
  /// increasing dimensions and the lo corner on decreasing ones.
  Point BestCorner(const Rect& r) const;

  /// The corner of `r` that minimizes this function.
  Point WorstCorner(const Rect& r) const;

  /// Upper bound on the score of any point inside `r` (Section 3.1:
  /// "maxscore(R)"); tight, attained at BestCorner(r).
  double MaxScore(const Rect& r) const { return Score(BestCorner(r)); }

  /// Lower bound on the score of any point inside `r`; attained at
  /// WorstCorner(r).
  double MinScore(const Rect& r) const { return Score(WorstCorner(r)); }
};

/// f(p) = bias + sum_i weight[i] * x_i. Negative weights yield decreasing
/// monotonicity on that dimension (as in Figure 7a, f = x1 - x2). The
/// constant bias does not change which records win, but it matters when
/// several functions must agree on absolute scores — e.g. the monotone
/// pieces of a piecewise-monotone function (core/piecewise.h).
class LinearFunction final : public ScoringFunction {
 public:
  /// Requires 1 <= weights.size() <= kMaxDims.
  explicit LinearFunction(std::vector<double> weights, double bias = 0.0);

  int dim() const override { return static_cast<int>(weights_.size()); }
  double Score(const Point& p) const override;
  void ScoreLanes(const double* const* lanes, std::size_t n,
                  double* out) const override;
  Monotonicity direction(int i) const override {
    return weights_[i] < 0 ? Monotonicity::kDecreasing
                           : Monotonicity::kIncreasing;
  }
  std::string ToString() const override;

  const std::vector<double>& weights() const { return weights_; }
  double bias() const { return bias_; }

 private:
  std::vector<double> weights_;
  double bias_;
};

/// f(p) = prod_i (a_i + x_i), with a_i >= 0; increasingly monotone on all
/// dimensions (used in Figures 7b and 21a/b).
class ProductFunction final : public ScoringFunction {
 public:
  /// Requires 1 <= offsets.size() <= kMaxDims and offsets[i] >= 0.
  explicit ProductFunction(std::vector<double> offsets);

  int dim() const override { return static_cast<int>(offsets_.size()); }
  double Score(const Point& p) const override;
  void ScoreLanes(const double* const* lanes, std::size_t n,
                  double* out) const override;
  Monotonicity direction(int) const override {
    return Monotonicity::kIncreasing;
  }
  std::string ToString() const override;

  const std::vector<double>& offsets() const { return offsets_; }

 private:
  std::vector<double> offsets_;
};

/// f(p) = sum_i a_i * x_i^2, with a_i >= 0; increasingly monotone on all
/// dimensions over the unit workspace (used in Figure 21c/d).
class SumOfSquaresFunction final : public ScoringFunction {
 public:
  /// Requires 1 <= coeffs.size() <= kMaxDims and coeffs[i] >= 0.
  explicit SumOfSquaresFunction(std::vector<double> coeffs);

  int dim() const override { return static_cast<int>(coeffs_.size()); }
  double Score(const Point& p) const override;
  void ScoreLanes(const double* const* lanes, std::size_t n,
                  double* out) const override;
  Monotonicity direction(int) const override {
    return Monotonicity::kIncreasing;
  }
  std::string ToString() const override;

  const std::vector<double>& coeffs() const { return coeffs_; }

 private:
  std::vector<double> coeffs_;
};

/// Scoring-function families used by the paper's workload generator.
enum class FunctionFamily {
  kLinear,        ///< sum a_i x_i, a_i ~ U[0,1]          (Section 8)
  kProduct,       ///< prod (a_i + x_i), a_i ~ U[0,1]     (Figure 21a/b)
  kSumOfSquares,  ///< sum a_i x_i^2, a_i ~ U[0,1]        (Figure 21c/d)
};

/// Draws a random function of the given family with coefficients from
/// `uniform01` (a callable returning doubles in [0,1)), matching the query
/// workload of Section 8.
std::unique_ptr<ScoringFunction> MakeRandomFunction(
    FunctionFamily family, int dim,
    const std::function<double()>& uniform01);

/// Parses a family name ("linear", "product", "squares") for CLI tools.
Result<FunctionFamily> ParseFunctionFamily(const std::string& name);

}  // namespace topkmon

#endif  // TOPKMON_COMMON_SCORING_H_
