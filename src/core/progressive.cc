#include "core/progressive.h"

#include <algorithm>
#include <limits>

#include "analysis/diversity.h"
#include "common/macros.h"
#include "core/module_greedy.h"

namespace tokenmagic::core {

namespace {

using analysis::AnalysisContext;

/// Diversity slack of the chosen tokens, kept incrementally: per-HT token
/// counts plus a count-of-counts histogram, so q_1 is a running maximum
/// and the tail q_ℓ + … + q_θ is the total minus the ℓ−1 largest counts,
/// read off the histogram from q_1 down. Scoring a candidate applies its
/// tokens, reads the slack and undoes them: O(|module| + q_1), with no
/// member vector rebuilt and no hashing.
class SlackCounter {
 public:
  SlackCounter(const ModuleSelectionState& state,
               const chain::DiversityRequirement& req)
      : context_(state.mu.context()),
        partition_(state.mu.partition()),
        req_(req),
        counts_(state.ht_tokens) {
    for (uint32_t count : counts_) {
      if (count == 0) continue;
      Reserve(count);
      ++histogram_[count];
      q1_ = std::max<int64_t>(q1_, count);
      total_ += count;
    }
  }

  double Slack() const {
    // The ℓ−1 largest counts, scanned from q_1 down.
    int64_t need = req_.ell - 1;
    int64_t top = 0;
    for (int64_t level = q1_; level > 0 && need > 0; --level) {
      int64_t take = std::min<int64_t>(histogram_[level], need);
      top += take * level;
      need -= take;
    }
    return analysis::DiversitySlack(q1_, total_ - top, req_);
  }

  /// Slack once `module` joins the chosen tokens; leaves no trace.
  double SlackWith(size_t module) {
    std::span<const AnalysisContext::Local> members =
        partition_.Members(module);
    const int64_t q1 = q1_;
    Reserve(q1_ + static_cast<int64_t>(members.size()));
    for (AnalysisContext::Local t : members) Add(context_.HtLocalOf(t));
    double slack = Slack();
    for (AnalysisContext::Local t : members) Remove(context_.HtLocalOf(t));
    total_ -= static_cast<int64_t>(members.size());
    q1_ = q1;
    return slack;
  }

  void Choose(size_t module) {
    std::span<const AnalysisContext::Local> members =
        partition_.Members(module);
    Reserve(q1_ + static_cast<int64_t>(members.size()));
    for (AnalysisContext::Local t : members) Add(context_.HtLocalOf(t));
  }

 private:
  void Reserve(int64_t level) {
    if (histogram_.size() <= static_cast<size_t>(level)) {
      histogram_.resize(static_cast<size_t>(level) + 1, 0);
    }
  }

  // Add and Remove move one HT between adjacent histogram levels. They
  // run once per candidate token with random HTs, so they are branch-free:
  // level 0 absorbs the moves from and to zero and is never read.
  void Add(AnalysisContext::Local ht) {
    uint32_t& count = counts_[ht];
    --histogram_[count];
    ++histogram_[++count];
    q1_ = std::max<int64_t>(q1_, count);
    ++total_;
  }

  // Inverse of Add for the count only; the caller restores q1_ and total_.
  void Remove(AnalysisContext::Local ht) {
    uint32_t& count = counts_[ht];
    --histogram_[count];
    ++histogram_[--count];
  }

  // tm-borrows(caller): the selection state's context, which outlives
  // this per-Select counter.
  const AnalysisContext& context_;
  const analysis::ModulePartition& partition_;
  const chain::DiversityRequirement req_;
  std::vector<uint32_t> counts_;     // chosen tokens per dense HT id
  std::vector<int64_t> histogram_;   // HTs per count (level 0 unused)
  int64_t q1_ = 0;
  int64_t total_ = 0;
};

}  // namespace

common::Result<SelectionResult> ProgressiveSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  (void)rng;  // the Progressive Algorithm is deterministic
  if (DeadlineExpired(input)) {
    return common::Status::Timeout("Progressive deadline already expired");
  }
  TM_ASSIGN_OR_RETURN(ModuleSelectionState state, InitModuleState(input));
  const chain::HtIndex& index = *input.index;
  chain::DiversityRequirement effective =
      EffectiveRequirement(input.requirement, input.policy);

  SelectionResult result;

  // Phase 1: reach ℓ distinct HTs (lines 2-4 of Algorithm 4).
  TM_ASSIGN_OR_RETURN(size_t phase1_steps,
                      GreedyCoverHts(&state, effective.ell, input.deadline));
  result.iterations += phase1_steps;

  // Phase 2: close the diversity gap (lines 5-7).
  auto eligible = [&]() {
    return CheckCandidate(state.mu, state.chosen, input.history, index,
                          input.requirement, input.policy)
        .eligible;
  };
  SlackCounter slack(state, effective);
  while (!eligible()) {
    TickDeadline(input);
    if (DeadlineExpired(input)) {
      return common::Status::Timeout("Progressive budget exhausted");
    }
    double delta = slack.Slack();
    double best_beta = -std::numeric_limits<double>::infinity();
    size_t best_module = static_cast<size_t>(-1);
    for (size_t candidate : state.remaining) {
      double delta_i = slack.SlackWith(candidate);
      double beta = (delta - delta_i) /
                    static_cast<double>(state.mu.module_size(candidate));
      if (beta > best_beta) {
        best_beta = beta;
        best_module = candidate;
      }
    }
    if (best_module == static_cast<size_t>(-1)) {
      return common::Status::Unsatisfiable(
          "no module assembly satisfies the diversity constraint");
    }
    ChooseModule(&state, best_module);
    slack.Choose(best_module);
    ++result.iterations;
  }

  result.members = MaterializeCandidate(state.mu, state.chosen);
  result.chosen_modules = state.chosen;
  return result;
}

}  // namespace tokenmagic::core
