// Frozen reference implementation of the module-based selectors, kept as
// a test oracle: the hash-set module universe with its pairwise
// configuration check, the unordered_set HT-cover greedy, the Progressive
// slack loop that rebuilds the candidate ring for every module it scores,
// and the Game-theoretic / Smallest / Random selectors over them, exactly
// as they were before the dense module partition replaced them. The
// differential suite runs both implementations on the same instances.
// Do not optimize or refactor this file; its value is that it does not
// change.
#include "core/reference/legacy_selection.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "analysis/diversity.h"
#include "analysis/dtrs.h"
#include "common/macros.h"
#include "common/strings.h"

namespace tokenmagic::core::legacy {

namespace {

/// True when sorted vector `a` is a subset of sorted vector `b`.
bool SortedSubset(const std::vector<chain::TokenId>& a,
                  const std::vector<chain::TokenId>& b) {
  return std::includes(b.begin(), b.end(), a.begin(), a.end());
}

/// True when sorted vectors `a` and `b` share no element.
bool SortedDisjoint(const std::vector<chain::TokenId>& a,
                    const std::vector<chain::TokenId>& b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

common::Result<ModuleUniverse> ModuleUniverse::Build(
    std::span<const chain::TokenId> universe,
    std::span<const chain::RsView> history) {
  using common::Status;
  ModuleUniverse mu;

  std::unordered_set<chain::TokenId> universe_set(universe.begin(),
                                                  universe.end());
  mu.token_count_ = universe_set.size();

  // Validate that history tokens live in the universe and the first
  // practical configuration holds pairwise (superset or disjoint).
  for (const chain::RsView& view : history) {
    for (chain::TokenId t : view.members) {
      if (universe_set.count(t) == 0) {
        return Status::InvalidArgument(common::StrFormat(
            "rs %llu contains token %llu outside the universe",
            static_cast<unsigned long long>(view.id),
            static_cast<unsigned long long>(t)));
      }
    }
  }
  for (size_t i = 0; i < history.size(); ++i) {
    for (size_t j = i + 1; j < history.size(); ++j) {
      const auto& a = history[i].members;
      const auto& b = history[j].members;
      if (!SortedDisjoint(a, b) && !SortedSubset(a, b) &&
          !SortedSubset(b, a)) {
        return Status::InvalidArgument(common::StrFormat(
            "history violates the first practical configuration: rs %llu "
            "and rs %llu partially overlap",
            static_cast<unsigned long long>(history[i].id),
            static_cast<unsigned long long>(history[j].id)));
      }
    }
  }

  // Super RSs (Definition 7): scan from the latest proposal backwards; an
  // RS none of whose tokens is already covered by a later RS is maximal.
  std::vector<size_t> order(history.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return history[a].proposed_at > history[b].proposed_at;
  });

  std::unordered_set<chain::TokenId> covered;
  std::vector<size_t> super_indices;  // indices into history
  for (size_t idx : order) {
    const auto& members = history[idx].members;
    bool any_covered = false;
    for (chain::TokenId t : members) {
      if (covered.count(t) > 0) {
        any_covered = true;
        break;
      }
    }
    if (!any_covered) {
      super_indices.push_back(idx);
      covered.insert(members.begin(), members.end());
    }
    // A partially-covered RS is impossible here: the configuration check
    // above guarantees it is a subset of the covering (later) RS.
  }

  // Emit super-RS modules (in original proposal order for determinism).
  std::sort(super_indices.begin(), super_indices.end());
  for (size_t idx : super_indices) {
    const chain::RsView& view = history[idx];
    Module module;
    module.index = mu.modules_.size();
    module.is_fresh = false;
    module.super_rs = view.id;
    module.tokens = view.members;
    std::vector<chain::RsId> subsets;
    for (const chain::RsView& other : history) {
      if (SortedSubset(other.members, view.members)) {
        subsets.push_back(other.id);
      }
    }
    module.subset_count = subsets.size();
    for (chain::TokenId t : module.tokens) {
      mu.token_to_module_.emplace(t, module.index);
    }
    mu.modules_.push_back(std::move(module));
    mu.subset_rs_.push_back(std::move(subsets));
  }

  // Fresh tokens (Definition 8): universe tokens in no RS.
  std::vector<chain::TokenId> fresh;
  for (chain::TokenId t : universe) {
    if (covered.count(t) == 0 && mu.token_to_module_.count(t) == 0) {
      fresh.push_back(t);
    }
  }
  std::sort(fresh.begin(), fresh.end());
  fresh.erase(std::unique(fresh.begin(), fresh.end()), fresh.end());
  for (chain::TokenId t : fresh) {
    Module module;
    module.index = mu.modules_.size();
    module.is_fresh = true;
    module.tokens = {t};
    module.subset_count = 0;
    mu.token_to_module_.emplace(t, module.index);
    mu.modules_.push_back(std::move(module));
    mu.subset_rs_.emplace_back();
  }

  return mu;
}

const Module& ModuleUniverse::module(size_t index) const {
  TM_CHECK(index < modules_.size());
  return modules_[index];
}

size_t ModuleUniverse::ModuleOfToken(chain::TokenId token) const {
  auto it = token_to_module_.find(token);
  TM_CHECK(it != token_to_module_.end());
  return it->second;
}

std::vector<size_t> ModuleUniverse::FreshModuleIndices() const {
  std::vector<size_t> out;
  for (const Module& m : modules_) {
    if (m.is_fresh) out.push_back(m.index);
  }
  return out;
}

std::vector<size_t> ModuleUniverse::SuperRsModuleIndices() const {
  std::vector<size_t> out;
  for (const Module& m : modules_) {
    if (!m.is_fresh) out.push_back(m.index);
  }
  return out;
}

const std::vector<chain::RsId>& ModuleUniverse::SubsetRsOf(
    size_t module_index) const {
  TM_CHECK(module_index < subset_rs_.size());
  return subset_rs_[module_index];
}

common::Result<ModuleSelectionState> InitModuleState(
    const SelectionInput& input) {
  using common::Status;
  if (input.index == nullptr) {
    return Status::InvalidArgument("SelectionInput.index must be set");
  }
  if (std::find(input.universe.begin(), input.universe.end(), input.target) ==
      input.universe.end()) {
    return Status::InvalidArgument("target token not in the mixin universe");
  }

  // The context-path build was proven identical to this span build, so
  // the reference always takes the span path.
  TM_ASSIGN_OR_RETURN(ModuleUniverse mu,
                      ModuleUniverse::Build(input.universe, input.history));

  ModuleSelectionState state{std::move(mu), 0, {}, {}, {}, 0};
  state.target_module = state.mu.ModuleOfToken(input.target);

  state.remaining.reserve(state.mu.module_count());
  for (size_t i = 0; i < state.mu.module_count(); ++i) {
    if (i != state.target_module) state.remaining.push_back(i);
  }
  // Seed with the target's module (x_τ / a_τ in the paper).
  const Module& target_module = state.mu.module(state.target_module);
  state.chosen.push_back(state.target_module);
  state.token_size += target_module.size();
  for (chain::TokenId t : target_module.tokens) {
    // TryHtOf: validate-and-fetch in one hash lookup, so a universe token
    // the index does not know is an InvalidArgument, not a crash.
    std::optional<chain::TxId> ht = input.index->TryHtOf(t);
    if (!ht.has_value()) {
      return Status::InvalidArgument(common::StrFormat(
          "universe token %llu has no HT in the index",
          static_cast<unsigned long long>(t)));
    }
    state.covered_hts.insert(*ht);
  }
  return state;
}

void ChooseModule(ModuleSelectionState* state, const chain::HtIndex& index,
                  size_t module_index) {
  auto it = std::find(state->remaining.begin(), state->remaining.end(),
                      module_index);
  TM_CHECK(it != state->remaining.end());
  state->remaining.erase(it);
  state->chosen.push_back(module_index);
  const Module& module = state->mu.module(module_index);
  state->token_size += module.size();
  for (chain::TokenId t : module.tokens) {
    state->covered_hts.insert(index.HtOf(t));
  }
}

void UnchooseModule(ModuleSelectionState* state,
                    const chain::HtIndex& index, size_t module_index) {
  TM_CHECK(module_index != state->target_module);
  auto it = std::find(state->chosen.begin(), state->chosen.end(),
                      module_index);
  TM_CHECK(it != state->chosen.end());
  state->chosen.erase(it);
  state->remaining.push_back(module_index);
  const Module& module = state->mu.module(module_index);
  state->token_size -= module.size();
  // Recompute covered HTs (a removed module may share HTs with others).
  state->covered_hts.clear();
  for (size_t chosen_index : state->chosen) {
    for (chain::TokenId t : state->mu.module(chosen_index).tokens) {
      state->covered_hts.insert(index.HtOf(t));
    }
  }
}

common::Result<size_t> GreedyCoverHts(ModuleSelectionState* state,
                                      const chain::HtIndex& index,
                                      int ell,
                                      common::Deadline* deadline) {
  size_t steps = 0;
  while (state->covered_hts.size() < static_cast<size_t>(ell)) {
    if (deadline != nullptr) {
      deadline->Tick();
      if (deadline->Expired()) {
        return common::Status::Timeout("HT-cover greedy budget exhausted");
      }
    }
    size_t deficit = static_cast<size_t>(ell) - state->covered_hts.size();
    double best_alpha = std::numeric_limits<double>::infinity();
    size_t best_module = static_cast<size_t>(-1);
    for (size_t candidate : state->remaining) {
      const Module& module = state->mu.module(candidate);
      std::unordered_set<chain::TxId> fresh_hts;
      for (chain::TokenId t : module.tokens) {
        chain::TxId ht = index.HtOf(t);
        if (state->covered_hts.count(ht) == 0) fresh_hts.insert(ht);
      }
      size_t new_hts = fresh_hts.size();
      if (new_hts == 0) continue;  // α would be infinite
      double alpha = static_cast<double>(module.size()) /
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
    ChooseModule(state, index, best_module);
    ++steps;
  }
  return steps;
}

std::vector<chain::TokenId> MaterializeCandidate(
    const ModuleUniverse& mu, const std::vector<size_t>& chosen_modules) {
  std::vector<chain::TokenId> out;
  for (size_t index : chosen_modules) {
    const Module& module = mu.module(index);
    out.insert(out.end(), module.tokens.begin(), module.tokens.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

size_t CandidateSubsetCount(const ModuleUniverse& mu,
                            const std::vector<size_t>& chosen_modules) {
  size_t count = 1;  // the candidate itself
  for (size_t index : chosen_modules) {
    count += mu.module(index).subset_count;
  }
  return count;
}

EligibilityVerdict CheckCandidate(
    const ModuleUniverse& mu, const std::vector<size_t>& chosen_modules,
    std::span<const chain::RsView> history, const chain::HtIndex& index,
    const chain::DiversityRequirement& requirement,
    const EligibilityPolicy& policy) {
  EligibilityVerdict verdict;

  std::vector<chain::TokenId> members =
      MaterializeCandidate(mu, chosen_modules);
  chain::DiversityRequirement effective =
      EffectiveRequirement(requirement, policy);

  if (!analysis::SatisfiesRecursiveDiversity(members, index, effective)) {
    verdict.violation = EligibilityVerdict::Violation::kDiversity;
    return verdict;
  }

  size_t v_candidate = CandidateSubsetCount(mu, chosen_modules);

  if (policy.check_dtrs_explicitly) {
    if (!analysis::PracticalDtrsDiversityHolds(members, v_candidate, index,
                                               requirement)) {
      verdict.violation = EligibilityVerdict::Violation::kDtrsDiversity;
      return verdict;
    }
  }

  if (policy.check_immutability) {
    // Every history RS inside a chosen super module gets the candidate as
    // its new super RS, whose subset count is v_candidate.
    std::unordered_map<chain::RsId, const chain::RsView*> by_id;
    for (const chain::RsView& view : history) by_id.emplace(view.id, &view);
    for (size_t module_index : chosen_modules) {
      for (chain::RsId rs : mu.SubsetRsOf(module_index)) {
        auto it = by_id.find(rs);
        TM_CHECK(it != by_id.end());
        const chain::RsView& covered = *it->second;
        if (!analysis::PracticalDtrsDiversityHolds(
                covered.members, v_candidate, index, covered.requirement)) {
          verdict.violation = EligibilityVerdict::Violation::kImmutability;
          return verdict;
        }
      }
    }
  }

  verdict.eligible = true;
  return verdict;
}

namespace {

/// Diversity slack of the chosen modules' token multiset.
double SlackOf(const ModuleUniverse& mu, const std::vector<size_t>& chosen,
               const chain::HtIndex& index,
               const chain::DiversityRequirement& req) {
  std::vector<chain::TokenId> members;
  for (size_t i : chosen) {
    const auto& tokens = mu.module(i).tokens;
    members.insert(members.end(), tokens.begin(), tokens.end());
  }
  return analysis::DiversitySlack(analysis::HtFrequencies(members, index),
                                  req);
}

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
  TM_ASSIGN_OR_RETURN(
      size_t phase1_steps,
      GreedyCoverHts(&state, index, effective.ell, input.deadline));
  result.iterations += phase1_steps;

  // Phase 2: close the diversity gap (lines 5-7).
  auto eligible = [&]() {
    return CheckCandidate(state.mu, state.chosen, input.history, index,
                          input.requirement, input.policy)
        .eligible;
  };
  while (!eligible()) {
    TickDeadline(input);
    if (DeadlineExpired(input)) {
      return common::Status::Timeout("Progressive budget exhausted");
    }
    double delta = SlackOf(state.mu, state.chosen, index, effective);
    double best_beta = -std::numeric_limits<double>::infinity();
    size_t best_module = static_cast<size_t>(-1);
    for (size_t candidate : state.remaining) {
      std::vector<size_t> tentative = state.chosen;
      tentative.push_back(candidate);
      double delta_i = SlackOf(state.mu, tentative, index, effective);
      double beta = (delta - delta_i) /
                    static_cast<double>(state.mu.module(candidate).size());
      if (beta > best_beta) {
        best_beta = beta;
        best_module = candidate;
      }
    }
    if (best_module == static_cast<size_t>(-1)) {
      return common::Status::Unsatisfiable(
          "no module assembly satisfies the diversity constraint");
    }
    ChooseModule(&state, index, best_module);
    ++result.iterations;
  }

  result.members = MaterializeCandidate(state.mu, state.chosen);
  result.chosen_modules = state.chosen;
  return result;
}

common::Result<SelectionResult> GameTheoreticSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  (void)rng;  // best-response dynamics are deterministic
  if (DeadlineExpired(input)) {
    return common::Status::Timeout("Game deadline already expired");
  }
  TM_ASSIGN_OR_RETURN(ModuleSelectionState state, InitModuleState(input));
  const chain::HtIndex& index = *input.index;
  chain::DiversityRequirement effective =
      EffectiveRequirement(input.requirement, input.policy);

  SelectionResult result;

  // Initialization (lines 2-4): the same HT-covering greedy as Algorithm 4.
  TM_ASSIGN_OR_RETURN(
      size_t init_steps,
      GreedyCoverHts(&state, index, effective.ell, input.deadline));
  result.iterations += init_steps;

  const bool initially_eligible =
      CheckCandidate(state.mu, state.chosen, input.history, index,
                     input.requirement, input.policy)
          .eligible;

  // Cost of a strategy profile for any player: |r̃_τ| / |A| when eligible,
  // ∞ otherwise. Encoded as (eligible?, size): every infeasible profile
  // compares equal (cost ∞), matching the paper's tie handling in
  // Example 3 where c(φ) = c(φ̄) = ∞ resolves to φ.
  auto profile_cost = [&](bool eligible,
                          size_t token_size) -> std::pair<int, size_t> {
    return {eligible ? 0 : 1, eligible ? token_size : 0};
  };

  // Best-response dynamics (lines 5-11). Each pass lets every player
  // reconsider; the potential function Φ = cost strictly decreases on
  // every strategy change, so this terminates. A hard cap guards against
  // pathological inputs.
  const size_t player_count = state.mu.module_count();
  const size_t max_passes = 2 * player_count + 8;
  auto run_dynamics = [&]() -> common::Status {
  bool changed = true;
  size_t passes = 0;
  while (changed && passes < max_passes) {
    changed = false;
    ++passes;
    for (size_t player = 0; player < player_count; ++player) {
      if (player == state.target_module) continue;  // a_τ is pinned to φ
      // Budget check while the profile is consistent (no flip in flight).
      TickDeadline(input);
      if (DeadlineExpired(input)) {
        return common::Status::Timeout("best-response budget exhausted");
      }
      bool currently_chosen =
          std::find(state.chosen.begin(), state.chosen.end(), player) !=
          state.chosen.end();

      // Cost with the current strategy.
      bool eligible_now =
          CheckCandidate(state.mu, state.chosen, input.history, index,
                         input.requirement, input.policy)
              .eligible;
      auto cost_now = profile_cost(eligible_now, state.token_size);

      // Cost with the flipped strategy.
      if (currently_chosen) {
        UnchooseModule(&state, index, player);
      } else {
        ChooseModule(&state, index, player);
      }
      bool eligible_flipped =
          CheckCandidate(state.mu, state.chosen, input.history, index,
                         input.requirement, input.policy)
              .eligible;
      auto cost_flipped = profile_cost(eligible_flipped, state.token_size);

      // Paper line 7-9: default to φ; switch only when the alternative is
      // strictly cheaper. Ties therefore resolve toward the *selected*
      // strategy φ.
      bool prefer_flipped;
      if (cost_flipped < cost_now) {
        prefer_flipped = true;
      } else if (cost_now < cost_flipped) {
        prefer_flipped = false;
      } else {
        // Equal costs: strategy φ (selected) wins the tie.
        prefer_flipped = !currently_chosen;
      }

      if (prefer_flipped) {
        changed = true;  // keep the flip
        ++result.iterations;
      } else {
        // Revert the flip.
        if (currently_chosen) {
          ChooseModule(&state, index, player);
        } else {
          UnchooseModule(&state, index, player);
        }
      }
    }
  }
  return common::Status::OK();
  };  // run_dynamics

  TM_RETURN_NOT_OK(run_dynamics());

  auto eligible_now = [&]() {
    return CheckCandidate(state.mu, state.chosen, input.history, index,
                          input.requirement, input.policy)
        .eligible;
  };

  if (!eligible_now()) {
    // Recursive diversity is not monotone in ring growth, so from an
    // infeasible start the tie-to-φ accretion can converge on an
    // infeasible plateau (e.g. the whole-universe profile violates
    // diversity while a subset satisfies it). Restart the dynamics from
    // a feasible profile: the Progressive solution. Best-response moves
    // from a feasible profile preserve feasibility (∞ never beats a
    // finite cost), so the restarted game converges to a feasible Nash
    // equilibrium no larger than the Progressive ring — PoS ≤ 1 is
    // preserved.
    (void)initially_eligible;
    ProgressiveSelector progressive;
    auto seed = progressive.Select(input, rng);
    if (!seed.ok()) {
      if (seed.status().IsTimeout()) return seed.status();
      return common::Status::Unsatisfiable(
          "no module assembly satisfies the diversity constraint");
    }
    // Reset the profile to the Progressive module set (module indices are
    // recovered from member tokens: both selectors build the module
    // universe from the identical (universe, history) pair).
    std::vector<size_t> to_drop = state.chosen;
    for (size_t module_index : to_drop) {
      if (module_index != state.target_module) {
        UnchooseModule(&state, index, module_index);
      }
    }
    std::vector<char> want(state.mu.module_count(), 0);
    for (chain::TokenId t : seed->members) {
      want[state.mu.ModuleOfToken(t)] = 1;
    }
    for (size_t module_index = 0; module_index < want.size();
         ++module_index) {
      if (want[module_index] && module_index != state.target_module) {
        ChooseModule(&state, index, module_index);
      }
    }
    TM_RETURN_NOT_OK(run_dynamics());
    if (!eligible_now()) {
      return common::Status::Unsatisfiable(
          "no module assembly satisfies the diversity constraint");
    }
  }

  result.members = MaterializeCandidate(state.mu, state.chosen);
  result.chosen_modules = state.chosen;
  return result;
}

namespace {

/// Shared add-until-eligible loop: `pick` chooses the next module index
/// position within state->remaining.
common::Result<SelectionResult> AddUntilEligible(
    const SelectionInput& input, ModuleSelectionState* state,
    const std::function<size_t(const ModuleSelectionState&)>& pick) {
  const chain::HtIndex& index = *input.index;
  SelectionResult result;
  auto eligible = [&]() {
    return CheckCandidate(state->mu, state->chosen, input.history, index,
                          input.requirement, input.policy)
        .eligible;
  };
  if (DeadlineExpired(input)) {
    return common::Status::Timeout("selection deadline already expired");
  }
  while (!eligible()) {
    TickDeadline(input);
    if (DeadlineExpired(input)) {
      return common::Status::Timeout("module-add budget exhausted");
    }
    if (state->remaining.empty()) {
      return common::Status::Unsatisfiable(
          "no module assembly satisfies the diversity constraint");
    }
    size_t position = pick(*state);
    TM_CHECK(position < state->remaining.size());
    ChooseModule(state, index, state->remaining[position]);
    ++result.iterations;
  }
  result.members = MaterializeCandidate(state->mu, state->chosen);
  result.chosen_modules = state->chosen;
  return result;
}

}  // namespace

common::Result<SelectionResult> SmallestSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  (void)rng;
  TM_ASSIGN_OR_RETURN(ModuleSelectionState state, InitModuleState(input));
  return AddUntilEligible(
      input, &state, [](const ModuleSelectionState& s) -> size_t {
        size_t best_pos = 0;
        size_t best_size = std::numeric_limits<size_t>::max();
        for (size_t pos = 0; pos < s.remaining.size(); ++pos) {
          size_t size = s.mu.module(s.remaining[pos]).size();
          if (size < best_size) {
            best_size = size;
            best_pos = pos;
          }
        }
        return best_pos;
      });
}

common::Result<SelectionResult> RandomSelector::Select(
    const SelectionInput& input, common::Rng* rng) const {
  TM_CHECK(rng != nullptr);
  TM_ASSIGN_OR_RETURN(ModuleSelectionState state, InitModuleState(input));
  return AddUntilEligible(input, &state,
                          [rng](const ModuleSelectionState& s) -> size_t {
                            return rng->NextBounded(s.remaining.size());
                          });
}

}  // namespace tokenmagic::core::legacy
