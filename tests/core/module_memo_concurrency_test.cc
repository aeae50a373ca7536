// Concurrency tests for the per-view module partition memo
// (AnalysisContext::Modules, DESIGN.md decision 14). The first
// module-based selection against a sealed view fills the memo; in a
// server several workers make that first selection at once. These tests
// race eight of them on one fresh view so ThreadSanitizer sees the fill
// and the lock-free fast path interleave, and pin what must survive: one
// partition per view, identical rings, and older views keeping their own.
#include <gtest/gtest.h>

#include <algorithm>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/context.h"
#include "analysis/epoch_chain.h"
#include "analysis/module_partition.h"
#include "core/module_greedy.h"
#include "core/progressive.h"
#include "data/synthetic.h"

namespace tokenmagic::core {
namespace {

using chain::TokenId;

constexpr int kThreads = 8;

data::Dataset MakeDataset(uint64_t seed, size_t supers) {
  data::SyntheticParams params;
  params.num_super_rs = supers;
  params.super_size_min = 5;
  params.super_size_max = 15;
  params.num_fresh = 16;
  params.sigma = 12.0;
  params.seed = seed;
  return data::MakeSyntheticDataset(params);
}

SelectionInput InputFor(const data::Dataset& dataset,
                        std::span<const chain::RsView> history,
                        const analysis::AnalysisContext* context,
                        TokenId target) {
  SelectionInput input;
  input.universe = dataset.universe;
  input.history = history;
  input.context = context;
  input.index = &dataset.index;
  input.requirement = {0.6, 10};
  input.target = target;
  return input;
}

TEST(ModuleMemoConcurrencyTest, FirstSelectionsShareOnePartition) {
  const data::Dataset dataset = MakeDataset(11, 80);
  analysis::EpochChain chain;
  chain.Append(dataset.history, &dataset.index, dataset.universe);
  const analysis::AnalysisContext view = chain.View();
  const std::vector<TokenId> unspent = dataset.UnspentTokens();
  ASSERT_FALSE(unspent.empty());
  const TokenId target = unspent.front();

  std::vector<std::vector<TokenId>> rings(kThreads);
  std::vector<const analysis::ModulePartition*> partitions(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      // Half the workers select through the shared view, half through
      // their own copy of it: copies share the memo.
      analysis::AnalysisContext copy = view;
      const analysis::AnalysisContext* context = i % 2 == 0 ? &view : &copy;
      SelectionInput input =
          InputFor(dataset, chain.History(), context, target);
      start.arrive_and_wait();
      ProgressiveSelector selector;
      auto ring = selector.Select(input, nullptr);
      ASSERT_TRUE(ring.ok()) << ring.status().ToString();
      rings[i] = ring->members;
      auto state = InitModuleState(input);
      ASSERT_TRUE(state.ok());
      partitions[i] = &state->mu.partition();
    });
  }
  for (std::thread& thread : threads) thread.join();

  const analysis::ModulePartition* shared = &view.Modules().value();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(rings[i], rings[0]) << "thread " << i;
    EXPECT_EQ(partitions[i], shared) << "thread " << i;
  }
  // The memoized answer is the answer: an instance interned one-shot
  // (with its own partition) picks the same ring.
  ProgressiveSelector selector;
  SelectionInput interned =
      InputFor(dataset, chain.History(), nullptr, target);
  InternInstance(&interned);
  auto reference = selector.Select(interned, nullptr);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(reference->members, rings[0]);
}

TEST(ModuleMemoConcurrencyTest, OlderViewKeepsItsOwnPartition) {
  const data::Dataset dataset = MakeDataset(12, 60);
  const size_t half = dataset.history.size() / 2;
  // First epoch: the first half of the history with every token it
  // mentions; second epoch: the rest.
  TokenId last = 0;
  for (size_t r = 0; r < half; ++r) {
    last = std::max(last, dataset.history[r].members.back());
  }
  size_t split = static_cast<size_t>(
      std::upper_bound(dataset.universe.begin(), dataset.universe.end(), last) -
      dataset.universe.begin());
  std::span<const TokenId> universe(dataset.universe);
  std::span<const chain::RsView> history(dataset.history);

  analysis::EpochChain chain;
  chain.Append(history.first(half), &dataset.index, universe.first(split));
  const analysis::AnalysisContext old_view = chain.View();
  // A selection-path lookup fills the old view's memo.
  auto first_fill = ModuleUniverse::ForInstance(
      universe.first(split), history.first(half), old_view);
  ASSERT_TRUE(first_fill.ok());
  const analysis::ModulePartition* old_memo = &old_view.Modules().value();
  const size_t old_modules = old_memo->module_count();

  chain.Append(history.subspan(half), &dataset.index, universe.subspan(split));
  const analysis::AnalysisContext new_view = chain.View();

  // Readers of both views race the second view's first fill.
  std::latch start(kThreads);
  std::vector<const analysis::ModulePartition*> seen(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      const analysis::AnalysisContext& view = i % 2 == 0 ? old_view : new_view;
      seen[i] = &view.Modules().value();
    });
  }
  for (std::thread& thread : threads) thread.join();

  const analysis::ModulePartition* new_memo = &new_view.Modules().value();
  EXPECT_NE(old_memo, new_memo);
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(seen[i], i % 2 == 0 ? old_memo : new_memo) << "thread " << i;
  }
  // The old view still answers its own prefix, unchanged by the append.
  EXPECT_EQ(&old_view.Modules().value(), old_memo);
  EXPECT_EQ(old_memo->module_count(), old_modules);
  auto rebuilt = analysis::ModulePartition::Build(old_view,
                                                  universe.first(split));
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_EQ(rebuilt->module_count(), old_modules);
  EXPECT_EQ(old_memo->token_count(), split);
  EXPECT_EQ(new_memo->token_count(), dataset.universe.size());
}

}  // namespace
}  // namespace tokenmagic::core
