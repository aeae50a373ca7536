// The TokenMagic framework (Section 4, Algorithm 1).
//
// TokenMagic wires the whole system together: the λ-batched blockchain, the
// per-batch RS ledgers, the liquidity (η) rule backed by Theorem 4.1's
// neighbor-set inference, and a pluggable DA-MS selector. Generating an RS
// for a token t_τ:
//   1. the mixin universe T is the token set of t_τ's batch;
//   2. Algorithm 1's randomization: a candidate RS is produced for every
//      token of T with the configured selector; every candidate containing
//      t_τ enters Cand_τ; the returned RS is drawn uniformly from Cand_τ
//      (an optional fast path runs the selector only for t_τ);
//   3. before acceptance, the liquidity rule i − μ_i ≥ η·(|T| − i) is
//      checked so future users can still spend their tokens.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "analysis/epoch_chain.h"
#include "chain/ht_index.h"
#include "chain/blockchain.h"
#include "chain/ledger.h"
#include "common/annotations.h"
#include "common/mutex.h"
#include "core/batch.h"
#include "core/selector.h"

namespace tokenmagic::core {

/// Framework configuration.
struct TokenMagicConfig {
  /// λ: minimum tokens per batch (Section 4).
  size_t lambda = 64;
  /// η: liquidity slack factor of the rule i − μ_i ≥ η·(|T| − i).
  double eta = 0.0;
  /// Run Algorithm 1's full per-token randomization (line 3-6). When
  /// false, the selector runs once, for the target token only.
  bool full_randomization = false;
  /// Eligibility policy shared by all selections.
  EligibilityPolicy policy;
};

/// Result of a framework-level RS generation.
struct GeneratedRs {
  chain::RsId id = chain::kInvalidRs;
  std::vector<chain::TokenId> members;
  /// Candidates Algorithm 1 collected for the target (>= 1).
  size_t candidate_count = 0;
};

class TokenMagic {
 public:
  /// `bc` must outlive the framework. The ledger is owned.
  TokenMagic(const chain::Blockchain* bc, TokenMagicConfig config);

  /// Generates, validates, and commits an RS spending `target`.
  [[nodiscard]] common::Result<GeneratedRs> GenerateRs(chain::TokenId target,
                                         chain::DiversityRequirement req,
                                         const MixinSelector& selector,
                                         common::Rng* rng);

  /// Builds the DA-MS instance for `target` without committing anything
  /// (used by benchmarks to time the bare selector). The instance
  /// co-owns the framework's per-batch snapshot (SelectionInput::owner):
  /// its universe/history spans and context pointer stay valid for the
  /// instance's whole lifetime, even when a concurrent probe for a token
  /// of a *different* batch reseats the snapshot cache. Re-fetch after a
  /// proposal to observe the new ledger state.
  [[nodiscard]] common::Result<SelectionInput> InstanceFor(
      chain::TokenId target, chain::DiversityRequirement req) const;

  const chain::Ledger& ledger() const { return ledger_; }
  const BatchIndex& batches() const { return batch_index_; }
  const chain::HtIndex& ht_index() const { return ht_index_; }

  /// The liquidity check (Section 4): with the RSs of `target`'s batch
  /// plus the prospective `members`, would i − μ_i ≥ η·(|T| − i) hold?
  bool LiquidityAllows(chain::TokenId target,
                       const std::vector<chain::TokenId>& members) const;

 private:
  /// The per-batch analysis snapshot: the batch's ledger views plus their
  /// interned AnalysisContext, sealed O(1) off the batch's epoch chain and
  /// shared by every instance, ladder stage, and liquidity probe until the
  /// next proposal touching the batch invalidates it. SelectionInput spans
  /// point into the chain's shared core, which `context` co-owns, so a
  /// snapshot stays valid (and unchanged) across any number of later
  /// proposals. Immutable once sealed.
  struct BatchSnapshot {
    // tm-borrows(context): the batch's RS views live in the epoch core
    // the context keeps alive (as does every span derived from them).
    std::span<const chain::RsView> history;
    // tm-owns: shared keep-alive of the epoch core behind `history` and
    // every span derived from this snapshot.
    analysis::AnalysisContext context;
  };

  /// Returns the snapshot for `token`'s batch, first routing any ledger
  /// delta into the per-batch epoch chains (O(delta), not O(ledger)). The
  /// returned pointer keeps the snapshot alive for the caller even after
  /// the cache drops it (concurrent const probes each hold their own).
  // tm-invalidates(TokenMagic::snapshots_): drops the cache slots of
  // batches the ledger delta touched; outstanding shared_ptrs keep the
  // superseded snapshots alive for their holders.
  std::shared_ptr<const BatchSnapshot> SnapshotFor(chain::TokenId token)
      const TM_EXCLUDES(snapshot_mu_);

  /// Routes ledger views [ledger_routed_, ledger_.size()) into the
  /// already-created batch chains (one epoch per touched batch) and drops
  /// those batches' cached snapshots. Chains not yet created pick their
  /// prefix up on creation instead.
  // tm-invalidates(TokenMagic::snapshots_): touched entries only.
  void SyncChainsLocked() const TM_REQUIRES(snapshot_mu_);

  /// The (lazily created) epoch chain of `batch`; creation seals one
  /// epoch over the batch's tokens plus its whole routed ledger prefix —
  /// the one remaining O(ledger) scan, paid once per batch.
  analysis::EpochChain& ChainForLocked(const Batch& batch) const
      TM_REQUIRES(snapshot_mu_);

  const chain::Blockchain* bc_;
  TokenMagicConfig config_;
  BatchIndex batch_index_;
  chain::HtIndex ht_index_;
  chain::Ledger ledger_;

  /// Guards only the snapshot cache below. The chain/ledger state itself
  /// follows a single-writer contract: the mutating GenerateRs* entry
  /// points must be externally serialized with each other, while the
  /// const probes (InstanceFor, LiquidityAllows) are safe to run
  /// concurrently with each other between mutations.
  mutable common::Mutex snapshot_mu_;  // tm-lock-rank(40)
  /// Per-batch epoch chains, lazily created (the batch partition is fixed
  /// because bc_ is immutable here). A GenerateRs* ledger commit bumps
  /// ledger_.size(); the next SnapshotFor routes the delta.
  // tm-owns: the per-batch epoch chains (owner id: chains_).
  mutable std::vector<std::unique_ptr<analysis::EpochChain>> chains_
      TM_GUARDED_BY(snapshot_mu_);
  /// Ledger prefix already routed into the created chains.
  mutable size_t ledger_routed_ TM_GUARDED_BY(snapshot_mu_) = 0;
  /// Cached per-batch snapshots, dropped whenever the batch's chain
  /// gains an epoch.
  // tm-owns: the per-batch snapshot cache (owner id: snapshots_).
  mutable std::vector<std::shared_ptr<const BatchSnapshot>> snapshots_
      TM_GUARDED_BY(snapshot_mu_);
};

}  // namespace tokenmagic::core
