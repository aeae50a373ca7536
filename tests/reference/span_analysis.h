// Frozen span-based twins of the analysis entry points (reference only).
//
// These are the original per-call implementations of the related-set BFS
// (Definition 1) and the Theorem 4.1 cascade, which rebuild the token ->
// RS inverted index and re-hash neighbor maps on every call. src/ computes
// both over an AnalysisContext only; the equivalence suites compare that
// path against these copies, and bench_context_throughput times them as
// its legacy side. Do not optimize them: their value is that they stay
// the independent, obviously-correct formulation.
#pragma once

#include <span>

#include "analysis/chain_reaction.h"
#include "analysis/related_set.h"
#include "chain/types.h"

namespace tokenmagic::reference {

/// Related RS set of `target_tokens` over `history`, interning the
/// inverted index into a hash map on every call.
analysis::RelatedSetResult ComputeRelatedSet(
    std::span<const chain::TokenId> target_tokens,
    std::span<const chain::RsView> history);

/// Polynomial cascade (Theorem 4.1 neighbor-set rule, per-component
/// closure, and zero-mixin propagation) to a fixed point, recomputing
/// every rule from the member lists on every iteration.
analysis::AnalysisResult Cascade(
    std::span<const chain::RsView> history,
    const analysis::SideInformation& side_info = {});

/// μ_i: tokens the cascade proves spent.
size_t CountInferableSpent(std::span<const chain::RsView> history);

}  // namespace tokenmagic::reference
