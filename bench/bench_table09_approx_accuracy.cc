// Reproduces Table 9: approximation accuracy of Algorithm 1 vs the exact
// exponential algorithm, as percentiles of the ratio approx/exact, while
// the maximal rule size k varies. Also prints the no-improvement ablation
// (plain SquareImp, with the claw-improvement phase disabled), which
// isolates what that phase adds.
//
// Instances are adversarial in the style of Example 5 / Figure 2: many
// *overlapping* synonym rules connect random spans of the two strings, so
// segment choices conflict and the w-MIS local search can err. (Pairs
// derived from the corpus generator are too easy — rules rarely overlap —
// and both algorithms score 1.0 everywhere.)
//
// Expected shape (paper): high median accuracy, improving with k; the
// claw-improvement phase never hurts.

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/usim.h"
#include "util/rng.h"
#include "util/stats.h"

namespace aujoin {
namespace {

// One adversarial instance: two strings plus a fresh rule set in which
// rule sides are random (mutually overlapping) spans of the strings.
struct Instance {
  Vocabulary vocab;
  RuleSet rules;
  Taxonomy empty_taxonomy;
  Record s;
  Record t;

  Knowledge knowledge() const {
    return Knowledge{&vocab, &rules, &empty_taxonomy};
  }
};

std::unique_ptr<Instance> MakeInstance(int k, Rng* rng) {
  auto inst = std::make_unique<Instance>();
  auto make_tokens = [&](const char* prefix, int count) {
    std::vector<TokenId> ids;
    std::string text;
    for (int i = 0; i < count; ++i) {
      std::string tok = std::string(prefix) + std::to_string(i);
      ids.push_back(inst->vocab.Intern(tok));
      if (!text.empty()) text += ' ';
      text += tok;
    }
    return std::make_pair(ids, text);
  };
  int ls = k + static_cast<int>(rng->Uniform(2, 4));
  int lt = k + static_cast<int>(rng->Uniform(1, 3));
  auto [s_ids, s_text] = make_tokens("s", ls);
  auto [t_ids, t_text] = make_tokens("t", lt);
  inst->s = MakeRecord(0, s_text, &inst->vocab);
  inst->t = MakeRecord(1, t_text, &inst->vocab);

  auto span_of = [&](const std::vector<TokenId>& ids) {
    int len = static_cast<int>(rng->Uniform(1, k));
    len = std::min<int>(len, static_cast<int>(ids.size()));
    int begin = static_cast<int>(
        rng->Uniform(0, static_cast<int64_t>(ids.size()) - len));
    return std::vector<TokenId>(ids.begin() + begin,
                                ids.begin() + begin + len);
  };
  int num_rules = static_cast<int>(rng->Uniform(6, 14));
  for (int r = 0; r < num_rules; ++r) {
    double closeness = 0.1 + 0.9 * rng->UniformReal();
    // Sides overlap with other rules' sides by construction.
    (void)inst->rules.AddRule(span_of(s_ids), span_of(t_ids), closeness);
  }
  return inst;
}

struct Ratios {
  std::vector<double> with_improve;
  std::vector<double> no_improve;
};

Ratios CollectRatios(int k, size_t num_pairs, uint64_t seed) {
  Rng rng(seed);
  Ratios out;
  while (out.with_improve.size() < num_pairs) {
    auto inst = MakeInstance(k, &rng);
    MsimOptions msim;
    msim.measures = kMeasureSynonym;  // isolate the hard rule conflicts
    msim.exact_match = false;

    UsimOptions exact_opts;
    exact_opts.msim = msim;
    UsimComputer exact_computer(inst->knowledge(), exact_opts);
    auto exact =
        exact_computer.Exact(inst->s, inst->t,
                             {.max_partitions_per_string = 512,
                              .max_pairs = 60000});
    if (!exact.exact || exact.value <= 1e-12) continue;

    UsimOptions approx_opts;
    approx_opts.msim = msim;
    approx_opts.squareimp.max_talons = 3;
    UsimComputer approx(inst->knowledge(), approx_opts);
    out.with_improve.push_back(
        std::min(1.0, approx.Approx(inst->s, inst->t) / exact.value));

    UsimOptions ablation_opts;
    ablation_opts.msim = msim;
    ablation_opts.enable_improvement = false;
    UsimComputer ablation(inst->knowledge(), ablation_opts);
    out.no_improve.push_back(
        std::min(1.0, ablation.Approx(inst->s, inst->t) / exact.value));
  }
  return out;
}

}  // namespace
}  // namespace aujoin

int main(int argc, char** argv) {
  aujoin::Flags flags(argc, argv);
  size_t pairs = static_cast<size_t>(flags.GetInt("pairs", 120));
  auto ks = flags.GetIntList("k", {3, 4, 5, 6, 7, 8, 9, 10});
  aujoin::PrintBanner("E2 approximation accuracy vs rule size k", "Table 9",
                      "high median accuracy improving with k; improvement "
                      "phase never hurts");
  std::printf("%-4s %-6s | %6s %6s %6s %6s %6s | %8s\n", "k", "pairs", "2%",
              "25%", "50%", "75%", "98%", "noimp50%");
  for (int64_t k : ks) {
    auto ratios = aujoin::CollectRatios(static_cast<int>(k), pairs,
                                        900 + static_cast<uint64_t>(k));
    if (ratios.with_improve.empty()) continue;
    std::printf("%-4lld %-6zu | %6.2f %6.2f %6.2f %6.2f %6.2f | %8.2f\n",
                static_cast<long long>(k), ratios.with_improve.size(),
                aujoin::Percentile(ratios.with_improve, 2),
                aujoin::Percentile(ratios.with_improve, 25),
                aujoin::Percentile(ratios.with_improve, 50),
                aujoin::Percentile(ratios.with_improve, 75),
                aujoin::Percentile(ratios.with_improve, 98),
                aujoin::Percentile(ratios.no_improve, 50));
  }
  return 0;
}
