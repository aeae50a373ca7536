// Differential suite: the dense module partition and counter-based greedy
// loops against the frozen reference (core/reference/legacy_selection).
//
// On seeded laminar histories of 1 to 2000 tokens the two implementations
// must agree exactly — ring members, chosen module indices, iteration
// counts and status codes — for Progressive, Smallest, Random and
// Game-theoretic selection, on every path an instance can take: an
// instance interned one-shot by InternInstance and a one-shot Build
// context (each with its own memoized partition), chained EpochChain
// views, a context whose token set is wider than the universe (per-call
// partition over the context), a sibling-shaped instance (the history
// extended by an earlier ring of the same transaction under a high
// synthetic id, as node::Wallet builds it), every iteration budget up to
// the unbounded run's, and the relaxation schedule.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "analysis/context.h"
#include "analysis/epoch_chain.h"
#include "common/deadline.h"
#include "common/rng.h"
#include "core/baselines.h"
#include "core/game_theoretic.h"
#include "core/progressive.h"
#include "core/reference/legacy_selection.h"
#include "core/relaxing.h"

namespace tokenmagic::core {
namespace {

using chain::RsView;
using chain::TokenId;

constexpr int kInstances = 240;
/// Universes at least this large skip the quadratic-cost comparisons
/// (budget sweeps, relaxation, Game-theoretic).
constexpr size_t kLarge = 300;

/// One seeded DA-MS instance over a laminar history.
struct Instance {
  chain::HtIndex index;
  std::vector<TokenId> universe;  // ascending
  std::vector<RsView> history;    // ascending ids, growing token ranges
  std::vector<TokenId> fresh;     // universe tokens in no RS
  size_t ht_count = 0;
  int seed = 0;
};

size_t UniverseSize(int seed, common::Rng* rng) {
  if (seed < 12) return 1 + static_cast<size_t>(seed);  // 1 .. 12 tokens
  if (seed % 80 == 40) return 2000;
  if (seed % 10 == 0) return 300 + rng->NextBounded(400);
  return 5 + rng->NextBounded(70);
}

Instance MakeInstance(int seed) {
  common::Rng rng(0xd1ffu + static_cast<uint64_t>(seed) * 7919u);
  Instance inst;
  inst.seed = seed;
  const size_t n = UniverseSize(seed, &rng);
  const bool all_fresh = seed % 7 == 3;
  // Timestamps out of history order exercise the super scan's stable
  // sort and RSs only partly covered by a later, smaller RS.
  const bool scrambled_times = seed % 5 == 4;
  // Large universes keep select_wide's shape (tens of HTs, ℓ ≤ 30); the
  // HT-count boundary is swept on the small and medium ones.
  const size_t hts = n >= kLarge ? 40 + rng.NextBounded(80)
                                 : 1 + rng.NextBounded(std::max<size_t>(2, n / 2));
  for (size_t i = 0; i < n; ++i) {
    TokenId t = 100 + static_cast<TokenId>(i);
    inst.universe.push_back(t);
    inst.index.Set(t, 5000 + rng.NextBounded(hts));
  }
  std::vector<char> in_rs(n, 0);
  chain::RsId next_id = 1;
  size_t cursor = 0;
  while (!all_fresh && cursor < n) {
    size_t group = std::min<size_t>(1 + rng.NextBounded(6), n - cursor);
    size_t chain_len = rng.NextBounded(4);
    for (size_t c = 0; c < chain_len; ++c) {
      size_t prefix = 1 + rng.NextBounded(group);
      RsView view;
      view.id = next_id;
      next_id += 1 + rng.NextBounded(3);
      for (size_t k = 0; k < prefix; ++k) {
        view.members.push_back(inst.universe[cursor + k]);
        in_rs[cursor + k] = 1;
      }
      view.proposed_at = scrambled_times
                             ? 1 + rng.NextBounded(4)
                             : static_cast<chain::Timestamp>(view.id);
      view.requirement = {1.0 + static_cast<double>(rng.NextBounded(3)),
                          1 + static_cast<int>(rng.NextBounded(2))};
      inst.history.push_back(std::move(view));
    }
    cursor += group;
  }
  std::vector<chain::TxId> distinct;
  for (size_t i = 0; i < n; ++i) {
    if (in_rs[i] == 0) inst.fresh.push_back(inst.universe[i]);
    distinct.push_back(inst.index.HtOf(inst.universe[i]));
  }
  std::sort(distinct.begin(), distinct.end());
  inst.ht_count = static_cast<size_t>(
      std::unique(distinct.begin(), distinct.end()) - distinct.begin());
  return inst;
}

/// A requirement and policy for one run: ℓ near the HT count (both sides
/// of the boundary) or small, c over the practical range.
SelectionInput MakeInput(const Instance& inst, common::Rng* rng) {
  SelectionInput input;
  input.universe = inst.universe;
  input.history = inst.history;
  input.index = &inst.index;
  input.target = inst.universe[rng->NextBounded(inst.universe.size())];
  input.policy.strict_dtrs = rng->NextBounded(3) != 0;
  input.policy.check_immutability = rng->NextBounded(3) == 0;
  input.policy.check_dtrs_explicitly =
      inst.universe.size() <= 80 && rng->NextBounded(6) == 0;
  const double cs[] = {0.6, 1.0, 1.5, 2.0, 3.0};
  input.requirement.c = cs[rng->NextBounded(5)];
  int strict = input.policy.strict_dtrs ? 1 : 0;
  int boundary = static_cast<int>(inst.ht_count) - strict;
  if (inst.universe.size() >= kLarge) {
    // Satisfiable in a few greedy steps: an unsatisfiable large instance
    // makes the reference rebuild the ring for every module it scores
    // until the universe runs out, which takes minutes unoptimized.
    input.policy.check_immutability = false;
    input.requirement.ell = 2 + static_cast<int>(rng->NextBounded(29));
    return input;
  }
  switch (rng->NextBounded(3)) {
    case 0:
      input.requirement.ell = std::max(1, boundary + static_cast<int>(
                                                         rng->NextBounded(3)) -
                                              1);
      break;
    case 1:
      input.requirement.ell = 1 + static_cast<int>(rng->NextBounded(4));
      break;
    default:
      input.requirement.ell =
          std::max(1, std::min(30, boundary / 2 + 1));
      break;
  }
  return input;
}

std::string Describe(const Instance& inst, const SelectionInput& input,
                     const char* path) {
  return "seed " + std::to_string(inst.seed) + " path " + path +
         " |U|=" + std::to_string(input.universe.size()) +
         " |H|=" + std::to_string(input.history.size()) +
         " target=" + std::to_string(input.target) +
         " req=(" + std::to_string(input.requirement.c) + "," +
         std::to_string(input.requirement.ell) + ")";
}

/// Counts runs by outcome so the suite can show it covered both sides.
struct Tally {
  int ok = 0;
  int unsatisfiable = 0;
  int timeout = 0;
};

void ExpectSame(const common::Result<SelectionResult>& want,
                const common::Result<SelectionResult>& got,
                const std::string& what, Tally* tally) {
  ASSERT_EQ(want.ok(), got.ok())
      << what << ": reference " << want.status().ToString() << " vs "
      << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code()) << what;
    if (want.status().IsUnsatisfiable()) ++tally->unsatisfiable;
    if (want.status().IsTimeout()) ++tally->timeout;
    return;
  }
  ++tally->ok;
  EXPECT_EQ(want->members, got->members) << what;
  EXPECT_EQ(want->chosen_modules, got->chosen_modules) << what;
  EXPECT_EQ(want->iterations, got->iterations) << what;
}

/// Runs `reference` and `dense` on `input` (fresh rngs with one seed, so
/// Random draws the same stream) and compares.
void Compare(const MixinSelector& reference, const MixinSelector& dense,
             const SelectionInput& input, const std::string& what,
             Tally* tally) {
  common::Rng want_rng(77);
  common::Rng got_rng(77);
  ExpectSame(reference.Select(input, &want_rng), dense.Select(input, &got_rng),
             what + " " + std::string(dense.name()), tally);
}

/// Every iteration budget from 1 to one past the unbounded run's
/// iteration count: Timeout parity and, once the budget suffices, the
/// same ring.
void CompareBudgets(const MixinSelector& reference, const MixinSelector& dense,
                    SelectionInput input, size_t iterations,
                    const std::string& what, Tally* tally) {
  for (uint64_t budget = 1; budget <= iterations + 1; ++budget) {
    common::Deadline want_deadline(0.0, budget);
    common::Deadline got_deadline(0.0, budget);
    input.deadline = &want_deadline;
    common::Rng want_rng(5);
    auto want = reference.Select(input, &want_rng);
    input.deadline = &got_deadline;
    common::Rng got_rng(5);
    auto got = dense.Select(input, &got_rng);
    std::string label = what + " budget " + std::to_string(budget);
    ExpectSame(want, got, label, tally);
    EXPECT_EQ(want_deadline.iterations_used(), got_deadline.iterations_used())
        << label;
  }
}

/// A sealed chain over the instance, appended in several epochs; returns
/// one (view, universe prefix) pair per epoch.
struct ChainedViews {
  std::unique_ptr<analysis::EpochChain> chain =
      std::make_unique<analysis::EpochChain>();
  std::vector<analysis::AnalysisContext> views;
  std::vector<size_t> token_ends;
};

ChainedViews AppendInEpochs(const Instance& inst, common::Rng* rng) {
  ChainedViews out;
  const size_t epochs = 1 + rng->NextBounded(4);
  size_t rs_done = 0;
  size_t tok_done = 0;
  for (size_t e = 0; e < epochs; ++e) {
    const bool last = e + 1 == epochs;
    size_t rs_end =
        last ? inst.history.size()
             : rs_done + rng->NextBounded(inst.history.size() - rs_done + 1);
    size_t tok_end = tok_done;
    for (size_t r = rs_done; r < rs_end; ++r) {
      TokenId max_member = inst.history[r].members.back();
      tok_end = std::max<size_t>(
          tok_end, static_cast<size_t>(max_member - inst.universe.front()) + 1);
    }
    if (last) tok_end = inst.universe.size();
    out.chain->Append(
        std::span<const RsView>(inst.history).subspan(rs_done,
                                                      rs_end - rs_done),
        &inst.index,
        std::span<const TokenId>(inst.universe)
            .subspan(tok_done, tok_end - tok_done));
    out.views.push_back(out.chain->View());
    out.token_ends.push_back(tok_end);
    rs_done = rs_end;
    tok_done = tok_end;
  }
  return out;
}

struct Selectors {
  legacy::ProgressiveSelector ref_progressive;
  legacy::SmallestSelector ref_smallest;
  legacy::RandomSelector ref_random;
  legacy::GameTheoreticSelector ref_game;
  ProgressiveSelector progressive;
  SmallestSelector smallest;
  RandomSelector random;
  GameTheoreticSelector game;
};

TEST(ModuleSelectionDifferentialTest, DenseLoopsMatchFrozenReference) {
  Selectors s;
  Tally tally;
  int huge = 0;
  int all_fresh = 0;
  int chained_epochs = 0;
  int siblings = 0;
  for (int seed = 0; seed < kInstances; ++seed) {
    const Instance inst = MakeInstance(seed);
    if (inst.universe.size() >= 1000) ++huge;
    if (inst.history.empty()) ++all_fresh;
    common::Rng rng(0x5eedu + static_cast<uint64_t>(seed));
    SelectionInput input = MakeInput(inst, &rng);
    const bool small = inst.universe.size() <= 120;
    const bool large = inst.universe.size() >= kLarge;

    // No sealed view: the instance is interned one-shot for the call.
    SelectionInput interned = input;
    InternInstance(&interned);
    Compare(s.ref_progressive, s.progressive, interned,
            Describe(inst, input, "interned"), &tally);
    Compare(s.ref_smallest, s.smallest, interned,
            Describe(inst, input, "interned"), &tally);
    Compare(s.ref_random, s.random, interned,
            Describe(inst, input, "interned"), &tally);
    if (small) {
      Compare(s.ref_game, s.game, interned,
              Describe(inst, input, "interned"), &tally);
    }

    // One-shot Build context: the memoized partition, filled by the first
    // call and reused by every later one.
    analysis::AnalysisContext built = analysis::AnalysisContext::Build(
        inst.history, &inst.index, inst.universe);
    SelectionInput with_context = input;
    with_context.context = &built;
    for (int repeat = 0; repeat < 2; ++repeat) {
      Compare(s.ref_progressive, s.progressive, with_context,
              Describe(inst, input, "built"), &tally);
    }
    Compare(s.ref_smallest, s.smallest, with_context,
            Describe(inst, input, "built"), &tally);
    Compare(s.ref_random, s.random, with_context,
            Describe(inst, input, "built"), &tally);
    if (small) {
      Compare(s.ref_game, s.game, with_context,
              Describe(inst, input, "built"), &tally);
    }

    // Iteration budgets 1..k+1 on both paths.
    if (!large) {
      common::Rng probe_rng(5);
      auto unbounded = s.progressive.Select(with_context, &probe_rng);
      size_t k = unbounded.ok() ? unbounded->iterations : 3;
      CompareBudgets(s.ref_progressive, s.progressive, interned, k,
                     Describe(inst, input, "interned"), &tally);
      CompareBudgets(s.ref_progressive, s.progressive, with_context, k,
                     Describe(inst, input, "built"), &tally);
      if (small) {
        CompareBudgets(s.ref_smallest, s.smallest, with_context, k,
                       Describe(inst, input, "built"), &tally);
      }
    }

    // The relaxation schedule from an Unsatisfiable requirement: ℓ past
    // the HT count, so every selector must relax down to what exists.
    if (small) {
      SelectionInput unsat = with_context;
      unsat.requirement.ell = static_cast<int>(inst.ht_count) + 2;
      RelaxingSelector want_relaxing(&s.ref_progressive);
      RelaxingSelector got_relaxing(&s.progressive);
      auto want = want_relaxing.Select(unsat, nullptr);
      auto got = got_relaxing.Select(unsat, nullptr);
      std::string what = Describe(inst, unsat, "relaxing");
      ASSERT_EQ(want.ok(), got.ok()) << what;
      if (want.ok()) {
        EXPECT_EQ(want->result.members, got->result.members) << what;
        EXPECT_EQ(want->result.chosen_modules, got->result.chosen_modules)
            << what;
        EXPECT_EQ(want->result.iterations, got->result.iterations) << what;
        EXPECT_EQ(want->relaxation_steps, got->relaxation_steps) << what;
        EXPECT_EQ(want->used_requirement.ell, got->used_requirement.ell)
            << what;
        EXPECT_EQ(want->used_requirement.c, got->used_requirement.c) << what;
        EXPECT_GT(got->relaxation_steps, 0) << what;
      } else {
        EXPECT_EQ(want.status().code(), got.status().code()) << what;
      }
    }

    // Chained views after several appends: each sealed view answers the
    // prefix it was sealed at through its own memo.
    ChainedViews chained = AppendInEpochs(inst, &rng);
    chained_epochs += static_cast<int>(chained.views.size());
    for (size_t e = 0; e < chained.views.size(); ++e) {
      const analysis::AnalysisContext& view = chained.views[e];
      size_t tokens = chained.token_ends[e];
      if (tokens == 0) continue;
      SelectionInput prefix = input;
      prefix.universe = std::span<const TokenId>(inst.universe).first(tokens);
      prefix.history =
          std::span<const RsView>(inst.history).first(view.rs_count());
      prefix.target = prefix.universe[rng.NextBounded(tokens)];
      prefix.context = &view;
      Compare(s.ref_progressive, s.progressive, prefix,
              Describe(inst, prefix, "chained"), &tally);
    }

    // Sibling-shaped: the transaction's earlier ring joins the history
    // under a synthetic id past every ledger id, and the next input's
    // instance is interned one-shot over that extended history.
    {
      common::Rng ring_rng(77);
      auto first = s.ref_progressive.Select(with_context, &ring_rng);
      if (first.ok()) {
        ++siblings;
        std::vector<RsView> extended = inst.history;
        RsView sibling;
        sibling.id = chain::kInvalidRs - 1000;
        sibling.members = first->members;
        sibling.proposed_at =
            inst.history.empty() ? 0 : inst.history.back().proposed_at + 1;
        sibling.requirement = input.requirement;
        extended.push_back(std::move(sibling));
        SelectionInput next = input;
        next.history = extended;
        next.target = inst.universe[rng.NextBounded(inst.universe.size())];
        InternInstance(&next);
        Compare(s.ref_progressive, s.progressive, next,
                Describe(inst, next, "sibling"), &tally);
        Compare(s.ref_smallest, s.smallest, next,
                Describe(inst, next, "sibling"), &tally);
        if (small) {
          Compare(s.ref_game, s.game, next, Describe(inst, next, "sibling"),
                  &tally);
        }
      }
    }

    // A universe narrower than the context's token set (fresh tokens
    // dropped): the per-call partition over the caller's context.
    if (inst.fresh.size() >= 2) {
      std::vector<TokenId> narrow;
      for (TokenId t : inst.universe) {
        if (t == inst.fresh.front() && t != input.target) continue;
        narrow.push_back(t);
      }
      SelectionInput narrowed = with_context;
      narrowed.universe = narrow;
      Compare(s.ref_progressive, s.progressive, narrowed,
              Describe(inst, narrowed, "narrow"), &tally);
      Compare(s.ref_smallest, s.smallest, narrowed,
              Describe(inst, narrowed, "narrow"), &tally);
    }
  }
  // The seeded instances must reach every regime the suite claims.
  EXPECT_GE(huge, 2);
  EXPECT_GE(all_fresh, 20);
  EXPECT_GT(chained_epochs, kInstances);
  EXPECT_GT(siblings, kInstances / 2);
  EXPECT_GT(tally.ok, 500);
  EXPECT_GT(tally.unsatisfiable, 50);
  EXPECT_GT(tally.timeout, 200);
}

// The memoized partition is the partition a per-call build produces.
TEST(ModuleSelectionDifferentialTest, MemoizedPartitionEqualsPerCallBuild) {
  for (int seed = 0; seed < 40; ++seed) {
    const Instance inst = MakeInstance(seed);
    analysis::AnalysisContext context = analysis::AnalysisContext::Build(
        inst.history, &inst.index, inst.universe);
    auto memo =
        ModuleUniverse::ForInstance(inst.universe, inst.history, context);
    auto fresh = ModuleUniverse::Build(inst.universe, inst.history, context);
    auto reference = legacy::ModuleUniverse::Build(inst.universe, inst.history);
    ASSERT_TRUE(memo.ok() && fresh.ok() && reference.ok()) << seed;
    EXPECT_EQ(&memo->partition(), &context.Modules().value()) << seed;
    ASSERT_EQ(memo->module_count(), reference->module_count()) << seed;
    for (size_t m = 0; m < reference->module_count(); ++m) {
      Module a = memo->module(m);
      Module b = fresh->module(m);
      const legacy::Module& want = reference->module(m);
      EXPECT_EQ(a.tokens, want.tokens) << seed << " module " << m;
      EXPECT_EQ(b.tokens, want.tokens) << seed << " module " << m;
      EXPECT_EQ(a.super_rs, want.super_rs) << seed << " module " << m;
      EXPECT_EQ(a.subset_count, want.subset_count) << seed << " module " << m;
      EXPECT_EQ(memo->SubsetRsOf(m), reference->SubsetRsOf(m)) << seed;
    }
  }
}

}  // namespace
}  // namespace tokenmagic::core
