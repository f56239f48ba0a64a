// Non-monotone preference functions via piecewise-monotone partitioning.
//
// The paper's future-work direction (Section 9): "a function with finite
// and analytically computable local maxima could be evaluated with a
// proper partitioning of the space into sub-domains where it is
// monotone." This header implements exactly that: the caller supplies
// the partition — a set of axis-parallel sub-domains, each with a
// monotone function that agrees with the global preference function on
// that sub-domain. A PiecewiseFunction is registered like any other
// scoring function: TMA, SMA and TSL decompose it into one constrained
// monotone sub-query per piece (core/query_table.h) and report the
// merged top-k under the parent's id.
//
// Example: f(p) = x2 - |x1 - 0.5| is not monotone in x1, but splits into
//   piece 1: x1 in [0, 0.5], f = x1 - 0.5 + x2   (increasing, increasing)
//   piece 2: x1 in [0.5, 1], f = 0.5 - x1 + x2   (decreasing, increasing)
// Records on a shared boundary may appear in several pieces; the merge
// deduplicates by record id, so partitions only need to cover the
// workspace, not to be disjoint.

#ifndef TOPKMON_CORE_PIECEWISE_H_
#define TOPKMON_CORE_PIECEWISE_H_

#include <memory>
#include <vector>

#include "core/query.h"

namespace topkmon {

/// One monotone piece of a non-monotone preference function: an
/// axis-parallel sub-domain and a monotone function that equals the
/// global function inside it.
struct MonotonePiece {
  Rect domain;
  std::shared_ptr<const ScoringFunction> function;
};

/// A piecewise-monotone preference function as a first-class
/// ScoringFunction: the value at `p` is the value of the first piece
/// whose domain contains `p`, and -infinity outside every piece —
/// uncovered records are unrankable and excluded from results entirely
/// (BruteForce skips -infinity scores; the decomposed engines never see
/// uncovered records at all).
///
/// IsMonotone() is false — the global function has no per-dimension
/// direction — but every engine accepts it at registration: TMA, SMA
/// and TSL decompose it internally into one constrained monotone
/// sub-query per piece (core/query_table.h), ShardedEngine
/// forwards to its inner engines, and BruteForce evaluates Score
/// directly. Being a ScoringFunction gives it a wire/journal encoding
/// (family tag 4, journal format v2): a piecewise query registered
/// against a journaling service survives recovery.
class PiecewiseFunction final : public ScoringFunction {
 public:
  /// Validates and wraps `pieces`: 1..255 pieces, uniform dimensionality
  /// across functions and domains, no nested piecewise functions (the
  /// wire encoding is deliberately one level deep — flatten instead).
  static Result<std::shared_ptr<const PiecewiseFunction>> Create(
      std::vector<MonotonePiece> pieces);

  int dim() const override { return dim_; }
  double Score(const Point& p) const override;
  /// Per-piece directions conflict by definition; reported as increasing
  /// for API completeness. Consumers must check IsMonotone() before
  /// trusting directions — corner bounds derived from them are invalid.
  Monotonicity direction(int) const override {
    return Monotonicity::kIncreasing;
  }
  bool IsMonotone() const override { return false; }
  std::string ToString() const override;

  const std::vector<MonotonePiece>& pieces() const { return pieces_; }

 private:
  PiecewiseFunction(std::vector<MonotonePiece> pieces, int dim)
      : pieces_(std::move(pieces)), dim_(dim) {}

  std::vector<MonotonePiece> pieces_;
  int dim_;
};

}  // namespace topkmon

#endif  // TOPKMON_CORE_PIECEWISE_H_
