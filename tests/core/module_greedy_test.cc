#include "core/module_greedy.h"

#include <gtest/gtest.h>

#include <unordered_set>

#include "analysis/context.h"
#include "analysis/epoch_chain.h"
#include "core/progressive.h"

namespace tokenmagic::core {
namespace {

using chain::RsView;
using chain::TokenId;
using chain::TxId;

RsView View(chain::RsId id, std::vector<TokenId> members) {
  RsView v;
  v.id = id;
  v.members = std::move(members);
  std::sort(v.members.begin(), v.members.end());
  v.proposed_at = id;
  return v;
}

/// External ids of the HTs the chosen modules cover.
std::unordered_set<TxId> CoveredHts(const ModuleSelectionState& state) {
  std::unordered_set<TxId> out;
  for (size_t h = 0; h < state.ht_tokens.size(); ++h) {
    if (state.ht_tokens[h] != 0) {
      out.insert(state.mu.context().ht_id(
          static_cast<analysis::AnalysisContext::Local>(h)));
    }
  }
  EXPECT_EQ(out.size(), state.covered_hts);
  return out;
}

struct Fixture {
  chain::HtIndex index;
  SelectionInput input;
  std::vector<TokenId> universe;
  std::vector<RsView> history;

  Fixture() {
    // Two super RSs {1,2},{3,4} + fresh tokens 5,6; HTs: 1,2 share h1;
    // others distinct.
    index.Set(1, 100);
    index.Set(2, 100);
    index.Set(3, 300);
    index.Set(4, 400);
    index.Set(5, 500);
    index.Set(6, 600);
    input.target = 5;
    universe = {1, 2, 3, 4, 5, 6};
    history = {View(0, {1, 2}), View(1, {3, 4})};
    input.universe = universe;
    input.history = history;
    input.requirement = {2.0, 2};
    input.index = &index;
    InternInstance(&input);
    input.policy.strict_dtrs = false;
  }
};

TEST(InitModuleStateTest, SeedsWithTargetModule) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->chosen.size(), 1u);
  EXPECT_EQ(state->chosen[0], state->target_module);
  EXPECT_EQ(state->token_size, 1u);  // target 5 is a fresh token
  EXPECT_EQ(CoveredHts(*state).size(), 1u);
  EXPECT_TRUE(CoveredHts(*state).count(500));
  // 4 modules total (2 supers + 2 fresh); 3 remaining.
  EXPECT_EQ(state->mu.module_count(), 4u);
  EXPECT_EQ(state->remaining.size(), 3u);
}

TEST(InitModuleStateTest, TargetInSuperRsSeedsWholeModule) {
  Fixture fx;
  fx.input.target = 1;  // inside super RS {1,2}
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  EXPECT_EQ(state->token_size, 2u);
  EXPECT_EQ(CoveredHts(*state).size(), 1u);  // both tokens share h1
}

TEST(ChooseUnchooseTest, RoundTripRestoresState) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  size_t other = state->remaining[0];
  size_t size_before = state->token_size;
  auto hts_before = CoveredHts(*state);
  size_t remaining_before = state->remaining.size();

  ChooseModule(&*state, other);
  EXPECT_EQ(state->chosen.size(), 2u);
  EXPECT_GT(state->token_size, size_before);
  EXPECT_EQ(state->remaining.size(), remaining_before - 1);

  UnchooseModule(&*state, other);
  EXPECT_EQ(state->chosen.size(), 1u);
  EXPECT_EQ(state->token_size, size_before);
  EXPECT_EQ(CoveredHts(*state), hts_before);
  EXPECT_EQ(state->remaining.size(), remaining_before);
}

TEST(ChooseUnchooseTest, SharedHtSurvivesRemoval) {
  // Two modules sharing an HT: removing one must keep the HT covered.
  chain::HtIndex index;
  index.Set(1, 100);
  index.Set(2, 100);
  index.Set(3, 300);
  SelectionInput input;
  input.target = 3;
  std::vector<TokenId> universe = {1, 2, 3};
  input.universe = universe;
  input.requirement = {2.0, 1};
  input.index = &index;
  InternInstance(&input);
  auto state = InitModuleState(input);
  ASSERT_TRUE(state.ok());
  size_t m1 = state->mu.ModuleOfToken(1);
  size_t m2 = state->mu.ModuleOfToken(2);
  ChooseModule(&*state, m1);
  ChooseModule(&*state, m2);
  EXPECT_TRUE(CoveredHts(*state).count(100));
  UnchooseModule(&*state, m2);
  EXPECT_TRUE(CoveredHts(*state).count(100));  // still via module m1
}

TEST(GreedyCoverHtsTest, StopsExactlyAtEll) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  auto steps = GreedyCoverHts(&*state, 3);
  ASSERT_TRUE(steps.ok());
  EXPECT_GE(CoveredHts(*state).size(), 3u);
  // Greedy must not overshoot by more than one module's worth.
  EXPECT_LE(*steps, 2u);
}

TEST(GreedyCoverHtsTest, PrefersCheapHtsPerToken) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  // Needing 2 HTs: fresh token 6 (1 token, 1 new HT, alpha = 1) beats
  // super {3,4} (2 tokens, 2 new HTs, alpha = 2/min(1,2)=2) and super
  // {1,2} (2 tokens, 1 new HT, alpha = 2).
  auto steps = GreedyCoverHts(&*state, 2);
  ASSERT_TRUE(steps.ok());
  EXPECT_EQ(*steps, 1u);
  auto members = MaterializeCandidate(state->mu, state->chosen);
  EXPECT_EQ(members, (std::vector<TokenId>{5, 6}));
}

TEST(GreedyCoverHtsTest, UnsatisfiableWhenHtsRunOut) {
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  auto steps = GreedyCoverHts(&*state, 99);
  EXPECT_FALSE(steps.ok());
  EXPECT_TRUE(steps.status().IsUnsatisfiable());
}

// A universe token the index does not know, outside the target's module,
// used to reach HtIndex::HtOf inside the HT-cover greedy and abort the
// process. The partition now checks every universe token's HT once, and
// selection returns an InvalidArgument naming the token.
TEST(InitModuleStateTest, UnknownHtIsInvalidArgumentWithoutContext) {
  Fixture fx;
  chain::HtIndex partial;  // token 6 (a fresh module) has no HT
  for (TokenId t : {1, 2, 3, 4, 5}) partial.Set(t, fx.index.HtOf(t));
  fx.input.index = &partial;
  fx.input.requirement = {2.0, 4};  // phase 1 must look past the target
  // No sealed snapshot view: the instance is interned one-shot with the
  // partial index.
  InternInstance(&fx.input);

  auto state = InitModuleState(fx.input);
  ASSERT_FALSE(state.ok());
  EXPECT_TRUE(state.status().IsInvalidArgument());
  EXPECT_NE(state.status().message().find("token 6"), std::string::npos)
      << state.status().message();

  ProgressiveSelector selector;
  auto result = selector.Select(fx.input, nullptr);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

TEST(InitModuleStateTest, UnknownHtIsInvalidArgumentWithContext) {
  Fixture fx;
  chain::HtIndex partial;
  for (TokenId t : {1, 2, 3, 4, 5}) partial.Set(t, fx.index.HtOf(t));
  fx.input.index = &partial;
  fx.input.requirement = {2.0, 4};

  // A one-shot context and a multi-epoch chained view, both interned
  // with the partial index: the memoized partition carries the same
  // verdict.
  analysis::AnalysisContext built =
      analysis::AnalysisContext::Build(fx.history, &partial, fx.universe);
  analysis::EpochChain chain;
  chain.Append(fx.history, &partial, fx.universe);
  analysis::AnalysisContext view = chain.View();
  for (const analysis::AnalysisContext* context : {&built, &view}) {
    fx.input.context = context;
    for (int repeat = 0; repeat < 2; ++repeat) {  // fill, then memo hit
      ProgressiveSelector selector;
      auto result = selector.Select(fx.input, nullptr);
      ASSERT_FALSE(result.ok());
      EXPECT_TRUE(result.status().IsInvalidArgument());
      EXPECT_NE(result.status().message().find("token 6"), std::string::npos)
          << result.status().message();
    }
  }
}

TEST(ModuleHtsTest, DistinctHtsOfModule) {
  // Super {1,2}: two tokens, one distinct HT (h1 = 100). Choosing it
  // counts that HT once.
  Fixture fx;
  auto state = InitModuleState(fx.input);
  ASSERT_TRUE(state.ok());
  size_t super1 = state->mu.ModuleOfToken(1);
  EXPECT_EQ(state->mu.module_size(super1), 2u);
  auto before = CoveredHts(*state);
  ChooseModule(&*state, super1);
  auto after = CoveredHts(*state);
  EXPECT_EQ(after.size(), before.size() + 1);
  EXPECT_TRUE(after.count(100));
  EXPECT_FALSE(before.count(100));
}

}  // namespace
}  // namespace tokenmagic::core
