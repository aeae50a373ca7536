// Recursive (c, ℓ)-diversity of token sets (Definition 4).
//
// The sensitive attribute of a token is its historical transaction (HT).
// For a token set whose HT frequencies, sorted descending, are
// q_1 >= q_2 >= ... >= q_θ, the set satisfies recursive (c, ℓ)-diversity iff
//   q_1 < c * (q_ℓ + q_{ℓ+1} + ... + q_θ).
// When θ < ℓ the tail sum is empty (zero) and the requirement fails.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "chain/ht_index.h"
#include "chain/types.h"

namespace tokenmagic::analysis {

/// Descending HT frequency vector (q_1 >= ... >= q_θ) of a token set.
std::vector<int64_t> HtFrequencies(std::span<const chain::TokenId> tokens,
                                   const chain::HtIndex& index);

/// Context-based frequencies: identical vector, using the snapshot's flat
/// token -> HT column (every token must be interned with a known HT).
std::vector<int64_t> HtFrequencies(std::span<const chain::TokenId> tokens,
                                   const AnalysisContext& context);

/// Number of distinct HTs among `tokens`.
size_t DistinctHtCount(std::span<const chain::TokenId> tokens,
                       const chain::HtIndex& index);

/// Core predicate on a sorted-descending frequency vector.
/// Empty input never satisfies any requirement.
bool SatisfiesRecursiveDiversity(const std::vector<int64_t>& frequencies,
                                 const chain::DiversityRequirement& req);

/// Convenience: predicate on a token set.
bool SatisfiesRecursiveDiversity(std::span<const chain::TokenId> tokens,
                                 const chain::HtIndex& index,
                                 const chain::DiversityRequirement& req);

/// Context-based convenience predicate.
bool SatisfiesRecursiveDiversity(std::span<const chain::TokenId> tokens,
                                 const AnalysisContext& context,
                                 const chain::DiversityRequirement& req);

/// Slack δ = q_1 - c * (q_ℓ + ... + q_θ): negative iff the requirement is
/// met; used as the greedy potential in the Progressive Algorithm (§6.2).
/// The sign always matches the exact integer feasibility verdict even when
/// the double magnitude rounds.
// tm-lint: allow(float, greedy potential; sign exact, magnitude may round)
double DiversitySlack(const std::vector<int64_t>& frequencies,
                      const chain::DiversityRequirement& req);

/// The same slack from its two integers: q_1 and the tail sum
/// q_ℓ + … + q_θ (0 and 0 for an empty set). Incremental callers that
/// keep HT counters use this overload, so both share one sign logic.
// tm-lint: allow(float, greedy potential; sign exact, magnitude may round)
double DiversitySlack(int64_t q1, int64_t tail,
                      const chain::DiversityRequirement& req);

}  // namespace tokenmagic::analysis
