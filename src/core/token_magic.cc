#include "core/token_magic.h"

#include <algorithm>

#include "analysis/chain_reaction.h"
#include "common/macros.h"
#include "common/strings.h"

namespace tokenmagic::core {

TokenMagic::TokenMagic(const chain::Blockchain* bc, TokenMagicConfig config)
    : bc_(bc),
      config_(config),
      batch_index_(*bc, config.lambda),
      ht_index_(chain::HtIndex::FromBlockchain(*bc)) {
  TM_CHECK(bc != nullptr);
  chains_.resize(batch_index_.batch_count());
  snapshots_.resize(batch_index_.batch_count());
}

void TokenMagic::SyncChainsLocked() const {
  if (ledger_routed_ == ledger_.size()) return;
  std::vector<std::vector<chain::RsView>> views(batch_index_.batch_count());
  for (size_t i = ledger_routed_; i < ledger_.size(); ++i) {
    const chain::RsView& view = ledger_.view(static_cast<chain::RsId>(i));
    // Batches are disjoint and RSs never span batches, so membership of
    // the first token decides.
    if (view.members.empty()) continue;
    views[batch_index_.BatchOfToken(view.members.front()).index]
        .push_back(view);
  }
  ledger_routed_ = ledger_.size();
  for (size_t b = 0; b < views.size(); ++b) {
    if (views[b].empty() || chains_[b] == nullptr) continue;
    chains_[b]->Append(views[b], &ht_index_, {});
    snapshots_[b].reset();
  }
}

analysis::EpochChain& TokenMagic::ChainForLocked(const Batch& batch) const {
  std::unique_ptr<analysis::EpochChain>& slot = chains_[batch.index];
  if (slot == nullptr) {
    slot = std::make_unique<analysis::EpochChain>();
    std::vector<chain::RsView> views;
    for (size_t i = 0; i < ledger_routed_; ++i) {
      const chain::RsView& view = ledger_.view(static_cast<chain::RsId>(i));
      if (!view.members.empty() &&
          batch_index_.BatchOfToken(view.members.front()).index ==
              batch.index) {
        views.push_back(view);
      }
    }
    slot->Append(views, &ht_index_, batch.tokens);
  }
  return *slot;
}

std::shared_ptr<const TokenMagic::BatchSnapshot> TokenMagic::SnapshotFor(
    chain::TokenId token) const {
  const Batch& batch = batch_index_.BatchOfToken(token);
  common::MutexLock lock(&snapshot_mu_);
  SyncChainsLocked();
  std::shared_ptr<const BatchSnapshot>& slot = snapshots_[batch.index];
  if (slot == nullptr) {
    const analysis::EpochChain& chain = ChainForLocked(batch);
    auto snapshot = std::make_shared<BatchSnapshot>();
    snapshot->history = chain.History();
    snapshot->context = chain.View();
    slot = std::move(snapshot);
  }
  return slot;
}

common::Result<SelectionInput> TokenMagic::InstanceFor(
    chain::TokenId target, chain::DiversityRequirement req) const {
  if (!bc_->HasToken(target)) {
    return common::Status::NotFound("unknown token");
  }
  if (ledger_.IsSpent(target)) {
    return common::Status::AlreadyExists("token already spent");
  }
  std::shared_ptr<const BatchSnapshot> snapshot = SnapshotFor(target);
  SelectionInput input;
  input.target = target;
  input.universe = batch_index_.MixinUniverse(target);
  input.history = snapshot->history;
  input.context = &snapshot->context;
  input.requirement = req;
  input.index = &ht_index_;
  input.policy = config_.policy;
  // The instance co-owns the snapshot: a concurrent probe for a token of
  // another batch reseats the single-slot cache, and without this the
  // cache slot would be the last owner — history/context would dangle
  // before the caller ever ran Select().
  input.owner = std::move(snapshot);
  return input;
}

bool TokenMagic::LiquidityAllows(
    chain::TokenId target,
    const std::vector<chain::TokenId>& members) const {
  std::shared_ptr<const BatchSnapshot> snapshot = SnapshotFor(target);
  chain::RsView prospective;
  prospective.id = chain::kInvalidRs - 1;
  prospective.members = members;
  std::sort(prospective.members.begin(), prospective.members.end());

  size_t rs_count = snapshot->history.size() + 1;  // i, with the prospective
  // The prospective RS is not part of the sealed snapshot; the overlay
  // cascade runs it as one extra dense RS over the snapshot's context
  // without re-interning the history.
  size_t inferable = analysis::ChainReactionAnalyzer::CountInferableSpent(
      snapshot->context, prospective);  // μ_i
  size_t universe = batch_index_.BatchOfToken(target).tokens.size();  // |T|
  // Require i − μ_i ≥ η · (|T| − i).
  double lhs = static_cast<double>(rs_count) - static_cast<double>(inferable);
  double rhs = config_.eta * (static_cast<double>(universe) -
                              static_cast<double>(rs_count));
  return lhs >= rhs;
}

common::Result<GeneratedRs> TokenMagic::GenerateRs(
    chain::TokenId target, chain::DiversityRequirement req,
    const MixinSelector& selector, common::Rng* rng) {
  using common::Status;
  TM_ASSIGN_OR_RETURN(SelectionInput input, InstanceFor(target, req));

  // Algorithm 1, lines 2-6: build the candidate set for the target.
  std::vector<std::vector<chain::TokenId>> candidates;
  if (config_.full_randomization) {
    for (chain::TokenId seed_token : input.universe) {
      if (ledger_.IsSpent(seed_token)) continue;
      SelectionInput seeded = input;
      seeded.target = seed_token;
      auto selected = selector.Select(seeded, rng);
      if (!selected.ok()) continue;
      const auto& members = selected.value().members;
      if (std::binary_search(members.begin(), members.end(), target)) {
        candidates.push_back(members);
      }
    }
  }
  if (candidates.empty()) {
    // Fast path (or fallback): select directly for the target.
    TM_ASSIGN_OR_RETURN(SelectionResult selected,
                        selector.Select(input, rng));
    candidates.push_back(std::move(selected.members));
  }

  // Line 7: uniform draw among the target's candidates.
  const std::vector<chain::TokenId>& members =
      candidates[rng->NextBounded(candidates.size())];

  if (!LiquidityAllows(target, members)) {
    return Status::Unsatisfiable(common::StrFormat(
        "liquidity rule violated (eta=%g): proposing this RS would leave "
        "future spenders without eligible rings",
        config_.eta));
  }

  TM_ASSIGN_OR_RETURN(chain::RsId id,
                      ledger_.Propose(members, target, req));
  GeneratedRs out;
  out.id = id;
  out.members = ledger_.view(id).members;
  out.candidate_count = candidates.size();
  return out;
}

}  // namespace tokenmagic::core
