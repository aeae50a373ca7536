#include "core/module_greedy.h"

#include <algorithm>
#include <limits>

#include "common/macros.h"
#include "common/strings.h"

namespace tokenmagic::core {

using analysis::AnalysisContext;

namespace {

/// Appends `module_index` to `chosen` and counts its tokens' HTs.
void Take(ModuleSelectionState* state, size_t module_index) {
  state->chosen.push_back(module_index);
  state->token_size += state->mu.module_size(module_index);
  const AnalysisContext& context = state->mu.context();
  for (AnalysisContext::Local t : state->mu.partition().Members(module_index)) {
    if (state->ht_tokens[context.HtLocalOf(t)]++ == 0) ++state->covered_hts;
  }
}

}  // namespace

common::Result<ModuleSelectionState> InitModuleState(
    const SelectionInput& input) {
  using common::Status;
  if (input.index == nullptr) {
    return Status::InvalidArgument("SelectionInput.index must be set");
  }
  TM_RETURN_NOT_OK(RequireContext(input));
  TM_ASSIGN_OR_RETURN(ModuleUniverse mu,
                      ModuleUniverse::ForInstance(input.universe,
                                                  input.history,
                                                  *input.context));
  const AnalysisContext& context = mu.context();
  const analysis::ModulePartition& partition = mu.partition();
  AnalysisContext::Local target = context.LocalOfToken(input.target);
  if (target == AnalysisContext::kNoLocal ||
      partition.ModuleOf(target) == AnalysisContext::kNoLocal) {
    return Status::InvalidArgument("target token not in the mixin universe");
  }
  // Every universe token's HT was checked once, when the partition was
  // built: a token the index does not know is an InvalidArgument here,
  // never a counter indexed by kNoLocal.
  if (partition.unknown_ht_token() != AnalysisContext::kNoLocal) {
    return Status::InvalidArgument(common::StrFormat(
        "universe token %llu has no HT in the index",
        static_cast<unsigned long long>(
            context.token_id(partition.unknown_ht_token()))));
  }

  ModuleSelectionState state{std::move(mu), partition.ModuleOf(target), {},
                             {}, 0, {}, 0};
  state.ht_tokens.assign(context.ht_count(), 0);
  state.remaining.reserve(state.mu.module_count());
  for (size_t i = 0; i < state.mu.module_count(); ++i) {
    if (i != state.target_module) state.remaining.push_back(i);
  }
  // Seed with the target's module (x_τ / a_τ in the paper).
  Take(&state, state.target_module);
  return state;
}

void ChooseModule(ModuleSelectionState* state, size_t module_index) {
  auto it = std::find(state->remaining.begin(), state->remaining.end(),
                      module_index);
  TM_CHECK(it != state->remaining.end());
  state->remaining.erase(it);
  Take(state, module_index);
}

void UnchooseModule(ModuleSelectionState* state, size_t module_index) {
  TM_CHECK(module_index != state->target_module);
  auto it = std::find(state->chosen.begin(), state->chosen.end(),
                      module_index);
  TM_CHECK(it != state->chosen.end());
  state->chosen.erase(it);
  state->remaining.push_back(module_index);
  state->token_size -= state->mu.module_size(module_index);
  // Counters, not a set: an HT another chosen module shares stays covered.
  const AnalysisContext& context = state->mu.context();
  for (AnalysisContext::Local t : state->mu.partition().Members(module_index)) {
    if (--state->ht_tokens[context.HtLocalOf(t)] == 0) --state->covered_hts;
  }
}

common::Result<size_t> GreedyCoverHts(ModuleSelectionState* state, int ell,
                                      common::Deadline* deadline) {
  const AnalysisContext& context = state->mu.context();
  const analysis::ModulePartition& partition = state->mu.partition();
  // seen[h] == stamp marks HT h as already met in the candidate being
  // scored; a fresh stamp per candidate resets it in O(1). HTs are random
  // per token, so the scoring loop is written without branches.
  std::vector<uint32_t> seen(state->ht_tokens.size(), 0);
  uint32_t stamp = 0;
  size_t steps = 0;
  while (state->covered_hts < static_cast<size_t>(ell)) {
    if (deadline != nullptr) {
      deadline->Tick();
      if (deadline->Expired()) {
        return common::Status::Timeout("HT-cover greedy budget exhausted");
      }
    }
    size_t deficit = static_cast<size_t>(ell) - state->covered_hts;
    double best_alpha = std::numeric_limits<double>::infinity();
    size_t best_module = static_cast<size_t>(-1);
    for (size_t candidate : state->remaining) {
      ++stamp;
      size_t new_hts = 0;
      for (AnalysisContext::Local t : partition.Members(candidate)) {
        AnalysisContext::Local h = context.HtLocalOf(t);
        new_hts += static_cast<size_t>((state->ht_tokens[h] == 0) &
                                       (seen[h] != stamp));
        seen[h] = stamp;
      }
      if (new_hts == 0) continue;  // α would be infinite
      double alpha = static_cast<double>(partition.ModuleSize(candidate)) /
                     static_cast<double>(std::min(deficit, new_hts));
      if (alpha < best_alpha) {
        best_alpha = alpha;
        best_module = candidate;
      }
    }
    if (best_module == static_cast<size_t>(-1)) {
      return common::Status::Unsatisfiable(common::StrFormat(
          "universe covers fewer than %d distinct HTs", ell));
    }
    ChooseModule(state, best_module);
    ++steps;
  }
  return steps;
}

}  // namespace tokenmagic::core
