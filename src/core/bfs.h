// The exact breadth-first-search selector (Algorithm 2, Section 5).
//
// Candidate RSs are examined in ascending size. Each candidate is accepted
// only if (a) its own HT multiset satisfies the recursive (c, ℓ)-diversity,
// (b) no token of any related RS (nor of the candidate) is eliminated by
// chain-reaction analysis — verified over the full token-RS combination
// space — and (c) every exact DTRS of every related RS and of the
// candidate satisfies the owning RS's requirement. Time complexity is
// O(n^n); instances are guarded by a wall-clock budget and size caps.
#pragma once

#include "core/selector.h"

namespace tokenmagic::core {

/// The mixin-universe cap for exact BFS wherever a caller must get an
/// answer in bounded time (the resilient ladder's first stage, the CLI):
/// past a couple of dozen tokens the O(n^n) search outlives any request
/// budget.
inline constexpr size_t kBfsBoundedMaxUniverse = 24;

class BfsSelector : public MixinSelector {
 public:
  struct Options {
    /// Wall-clock budget; expiry returns Status::Timeout (0 = unlimited).
    double budget_seconds = 0.0;
    /// Cap on the mixin-universe size accepted (guards against accidental
    /// exponential blowups; 0 = unlimited).
    size_t max_universe = 0;
    /// Cap on materialized token-RS combinations per candidate.
    uint64_t max_combinations = 500000;
  };

  BfsSelector() = default;
  explicit BfsSelector(Options options) : options_(options) {}

  [[nodiscard]] common::Result<SelectionResult> Select(const SelectionInput& input,
                                         common::Rng* rng) const override;
  std::string_view name() const override { return "TM_B"; }

 private:
  Options options_;
};

}  // namespace tokenmagic::core
