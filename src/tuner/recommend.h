#ifndef AUJOIN_TUNER_RECOMMEND_H_
#define AUJOIN_TUNER_RECOMMEND_H_

#include <cstdint>
#include <vector>

#include "join/join.h"
#include "tuner/cost_model.h"
#include "tuner/estimator.h"

namespace aujoin {

/// Options of Algorithm 7 (tau suggestion).
struct TunerOptions {
  /// The universe U of candidate overlap constraints.
  std::vector<int> tau_universe = {1, 2, 3, 4, 5, 6, 8};
  /// Bernoulli sampling probabilities per side.
  double sample_prob_s = 0.01;
  double sample_prob_t = 0.01;
  /// Burn-in n* — the minimum number of iterations.
  int min_iterations = 10;
  /// Hard iteration cap (the CI rule normally stops much earlier).
  int max_iterations = 300;
  /// Two-sided confidence level for the Student's t quantile t*
  /// (paper Fig. 8 uses 70% => t* = 1.036).
  double confidence = 0.70;
  uint64_t seed = 1234;
  /// Filter settings the suggestion is for.
  double theta = 0.8;
  FilterMethod method = FilterMethod::kAuHeuristic;
  bool exact_min_partition = true;
};

/// Output of Algorithm 7.
struct TauRecommendation {
  int best_tau = 1;
  int iterations = 0;
  double seconds = 0.0;
  /// Final cost estimate per tau (aligned with TunerOptions::tau_universe).
  std::vector<double> estimated_cost;
  /// Records drawn across every iteration's samples (both sides of an
  /// R-S join): how much data the estimates rest on.
  uint64_t sampled_records = 0;
  /// True when the CI stopping rule fired (vs. hitting max_iterations)
  /// and at least one sample held a record pair. Samples without a pair
  /// estimate every cost as 0, which says nothing about tau, so such a
  /// run never reports converged.
  bool converged = false;
};

/// Algorithm 7: iteratively samples, estimates Eq. (15) costs per tau with
/// confidence intervals, and stops when the worst-case regret of the
/// current winner is cheaper than one more estimation round (Ineq. 24).
TauRecommendation RecommendTau(const JoinContext& context,
                               const CostModel& cost_model,
                               const TunerOptions& options);

/// Calibrates the cost model for `join_options` on `context`, then runs
/// Algorithm 7: the tau suggestion a join is then run with (below, or
/// Engine::SuggestTau followed by Engine::Join).
TauRecommendation SuggestTau(const JoinContext& context,
                             const JoinOptions& join_options,
                             const TunerOptions& tuner_options);

/// Convenience wrapper: SuggestTau, then the full join with the
/// suggested value. The suggestion time (calibration included) is
/// reported in the result's stats.suggest_seconds.
JoinResult JoinWithSuggestedTau(const JoinContext& context,
                                JoinOptions join_options,
                                const TunerOptions& tuner_options,
                                TauRecommendation* recommendation = nullptr);

}  // namespace aujoin

#endif  // AUJOIN_TUNER_RECOMMEND_H_
