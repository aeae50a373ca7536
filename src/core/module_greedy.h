// Shared machinery for the module-based selectors (Progressive, Game-
// theoretic, Smallest, Random): the module decomposition of an instance
// and the phase-1 greedy that reaches ℓ distinct HTs.
//
// The state keeps HT counters over the dense HT ids of the partition's
// context (AnalysisContext::HtLocalOf): a module's HTs are counted in or
// out in O(|module|), and scoring a candidate needs no hashing.
#pragma once

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/modules.h"
#include "core/selector.h"

namespace tokenmagic::core {

/// Working state of a module-based selection.
struct ModuleSelectionState {
  ModuleUniverse mu;
  /// Module containing the target token (always chosen).
  size_t target_module = 0;
  /// Chosen module indices (includes target_module).
  std::vector<size_t> chosen;
  /// Remaining selectable module indices.
  std::vector<size_t> remaining;
  /// Current candidate size in tokens.
  size_t token_size = 0;
  /// Chosen tokens per dense HT id of mu.context().
  std::vector<uint32_t> ht_tokens;
  /// Distinct HTs covered by the chosen modules (nonzero ht_tokens).
  size_t covered_hts = 0;
};

/// Builds the initial state from an instance: validates the universe,
/// history and every universe token's HT, locates the target's module and
/// seeds the state with it.
[[nodiscard]] common::Result<ModuleSelectionState> InitModuleState(
    const SelectionInput& input);

/// Adds module `index` to the state (moves it out of `remaining`).
void ChooseModule(ModuleSelectionState* state, size_t module_index);

/// Removes module `index` from `chosen` (back into `remaining`).
void UnchooseModule(ModuleSelectionState* state, size_t module_index);

/// Phase 1 of Algorithms 4 and 5: greedily add the module minimizing
///   α_i = |x_i| / min(ℓ - |H|, |H_i \ H|)
/// until at least `ell` distinct HTs are covered. Returns the number of
/// greedy steps, Unsatisfiable when the universe cannot reach ℓ HTs, or
/// Timeout when `deadline` (optional) expires.
[[nodiscard]] common::Result<size_t> GreedyCoverHts(
    ModuleSelectionState* state, int ell,
    common::Deadline* deadline = nullptr);

}  // namespace tokenmagic::core
