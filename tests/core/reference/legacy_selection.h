// Frozen reference implementation of the module-based selectors (see
// legacy_selection.cc). Same names as the production types, in their own
// namespace, so the differential suite can run both side by side.
#pragma once

#include <span>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chain/ht_index.h"
#include "chain/types.h"
#include "common/status.h"
#include "core/eligibility.h"
#include "core/selector.h"

namespace tokenmagic::core::legacy {

struct Module {
  size_t index = 0;
  bool is_fresh = false;
  chain::RsId super_rs = chain::kInvalidRs;
  std::vector<chain::TokenId> tokens;
  size_t subset_count = 0;

  size_t size() const { return tokens.size(); }
};

class ModuleUniverse {
 public:
  [[nodiscard]] static common::Result<ModuleUniverse> Build(
      std::span<const chain::TokenId> universe,
      std::span<const chain::RsView> history);

  const std::vector<Module>& modules() const { return modules_; }
  size_t module_count() const { return modules_.size(); }
  const Module& module(size_t index) const;
  size_t ModuleOfToken(chain::TokenId token) const;
  std::vector<size_t> FreshModuleIndices() const;
  std::vector<size_t> SuperRsModuleIndices() const;
  const std::vector<chain::RsId>& SubsetRsOf(size_t module_index) const;
  size_t token_count() const { return token_count_; }

 private:
  std::vector<Module> modules_;
  std::vector<std::vector<chain::RsId>> subset_rs_;
  std::unordered_map<chain::TokenId, size_t> token_to_module_;
  size_t token_count_ = 0;
};

struct ModuleSelectionState {
  ModuleUniverse mu;
  size_t target_module = 0;
  std::vector<size_t> chosen;
  std::unordered_set<chain::TxId> covered_hts;
  std::vector<size_t> remaining;
  size_t token_size = 0;
};

[[nodiscard]] common::Result<ModuleSelectionState> InitModuleState(
    const SelectionInput& input);
void ChooseModule(ModuleSelectionState* state, const chain::HtIndex& index,
                  size_t module_index);
void UnchooseModule(ModuleSelectionState* state,
                    const chain::HtIndex& index, size_t module_index);
[[nodiscard]] common::Result<size_t> GreedyCoverHts(
    ModuleSelectionState* state, const chain::HtIndex& index, int ell,
    common::Deadline* deadline = nullptr);

EligibilityVerdict CheckCandidate(
    const ModuleUniverse& mu, const std::vector<size_t>& chosen_modules,
    std::span<const chain::RsView> history, const chain::HtIndex& index,
    const chain::DiversityRequirement& requirement,
    const EligibilityPolicy& policy);
std::vector<chain::TokenId> MaterializeCandidate(
    const ModuleUniverse& mu, const std::vector<size_t>& chosen_modules);
size_t CandidateSubsetCount(const ModuleUniverse& mu,
                            const std::vector<size_t>& chosen_modules);

class ProgressiveSelector : public MixinSelector {
 public:
  [[nodiscard]] common::Result<SelectionResult> Select(
      const SelectionInput& input, common::Rng* rng) const override;
  std::string_view name() const override { return "TM_P"; }
};

class GameTheoreticSelector : public MixinSelector {
 public:
  [[nodiscard]] common::Result<SelectionResult> Select(
      const SelectionInput& input, common::Rng* rng) const override;
  std::string_view name() const override { return "TM_G"; }
};

class SmallestSelector : public MixinSelector {
 public:
  [[nodiscard]] common::Result<SelectionResult> Select(
      const SelectionInput& input, common::Rng* rng) const override;
  std::string_view name() const override { return "TM_S"; }
};

class RandomSelector : public MixinSelector {
 public:
  [[nodiscard]] common::Result<SelectionResult> Select(
      const SelectionInput& input, common::Rng* rng) const override;
  std::string_view name() const override { return "TM_R"; }
};

}  // namespace tokenmagic::core::legacy
