#include "core/modules.h"

#include <algorithm>

#include "common/macros.h"

namespace tokenmagic::core {

namespace {

using analysis::AnalysisContext;
using analysis::ModulePartition;

/// True when `universe` is exactly the context's interned token column,
/// compared by content: the one case the view's memoized partition
/// answers.
bool IsViewUniverse(const AnalysisContext& context,
                    std::span<const chain::TokenId> universe) {
  if (universe.size() != context.token_count()) return false;
  for (size_t i = 0; i < universe.size(); ++i) {
    if (universe[i] !=
        context.token_id(static_cast<AnalysisContext::Local>(i))) {
      return false;
    }
  }
  return true;
}

}  // namespace

common::Result<ModuleUniverse> ModuleUniverse::Build(
    std::span<const chain::TokenId> universe,
    std::span<const chain::RsView> history,
    const AnalysisContext& context) {
  TM_CHECK(context.rs_count() == history.size());
  TM_ASSIGN_OR_RETURN(ModulePartition partition,
                      ModulePartition::Build(context, universe));
  auto owned = std::make_shared<const ModulePartition>(std::move(partition));
  ModuleUniverse mu;
  mu.context_ = &context;
  mu.partition_ = owned.get();
  mu.owned_ = std::move(owned);
  return mu;
}

common::Result<ModuleUniverse> ModuleUniverse::ForInstance(
    std::span<const chain::TokenId> universe,
    std::span<const chain::RsView> history, const AnalysisContext& context) {
  if (!IsViewUniverse(context, universe)) {
    return Build(universe, history, context);
  }
  TM_CHECK(context.rs_count() == history.size());
  const common::Result<ModulePartition>& memo = context.Modules();
  if (!memo.ok()) return memo.status();
  ModuleUniverse mu;
  mu.context_ = &context;
  mu.partition_ = &memo.value();
  return mu;
}

Module ModuleUniverse::module(size_t index) const {
  TM_CHECK(index < module_count());
  Module module;
  module.index = index;
  module.is_fresh = partition_->is_fresh(index);
  if (!module.is_fresh) {
    module.super_rs = context_->rs_id(partition_->SuperRs(index));
  }
  for (AnalysisContext::Local t : partition_->Members(index)) {
    module.tokens.push_back(context_->token_id(t));
  }
  module.subset_count = partition_->SubsetRs(index).size();
  return module;
}

size_t ModuleUniverse::ModuleOfToken(chain::TokenId token) const {
  AnalysisContext::Local local = context_->LocalOfToken(token);
  TM_CHECK(local != AnalysisContext::kNoLocal);
  AnalysisContext::Local module = partition_->ModuleOf(local);
  TM_CHECK(module != AnalysisContext::kNoLocal);
  return module;
}

std::vector<size_t> ModuleUniverse::FreshModuleIndices() const {
  std::vector<size_t> out;
  for (size_t m = partition_->super_count(); m < module_count(); ++m) {
    out.push_back(m);
  }
  return out;
}

std::vector<size_t> ModuleUniverse::SuperRsModuleIndices() const {
  std::vector<size_t> out;
  for (size_t m = 0; m < partition_->super_count(); ++m) out.push_back(m);
  return out;
}

std::vector<chain::RsId> ModuleUniverse::SubsetRsOf(
    size_t module_index) const {
  TM_CHECK(module_index < module_count());
  std::vector<chain::RsId> out;
  for (AnalysisContext::Local rs : partition_->SubsetRs(module_index)) {
    out.push_back(context_->rs_id(rs));
  }
  return out;
}

}  // namespace tokenmagic::core
