// Interned columnar snapshot of one RS history (the shared analysis core).
//
// Every DA-MS algorithm in the paper is a traversal of the token <-> RS
// incidence structure, but the legacy entry points re-materialize that
// structure per call: ComputeRelatedSet rebuilds the token -> RS inverted
// index, the cascade re-hashes neighbor maps every fixpoint iteration, and
// homogeneity/diversity probes pay one HtIndex hash lookup per member per
// probe. AnalysisContext interns the structure once:
//
//  * dense uint32 ids for tokens (sorted external order), RSs (history
//    order) and HTs (first-appearance order over the token column);
//  * CSR arrays for RS -> member tokens and the token -> RS inverted index;
//  * a flat token -> HT column replacing per-probe HtIndex hashing.
//
// A context is an immutable value: once obtained it never changes, so a
// block worth of selections (every target, every ladder stage, every
// analysis probe) shares one snapshot, and concurrent selectors share it
// without locks. Interning is per-snapshot, not global — see DESIGN.md
// decision 8. The one lazily filled part is the module partition memo
// behind Modules(): a pure function of the immutable columns, filled at
// most once per context and shared by its copies (DESIGN.md decision 14).
//
// Two storage modes back the same read surface (DESIGN.md decision 12):
//
//  * *Built* contexts (AnalysisContext::Build) own their columns outright.
//    This is the from-scratch path: adapters, benches, and the full-rebuild
//    fallback (snapshot restore / reorg) use it.
//  * *Chained* contexts are sealed O(1) views over an EpochChain's shared
//    append-only columns (analysis/epoch_chain.h): every accessor reads the
//    same dense columns through the pointer surface below, clipped to the
//    RS/token counts at seal time. The shared core is kept alive by
//    `storage_`, so a sealed view outlives any later epoch append.
//
// The equivalence suite asserts the two modes are observationally
// byte-identical for equal inputs at every block height.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "chain/ht_index.h"
#include "chain/types.h"
#include "common/status.h"

namespace tokenmagic::analysis {

class EpochChain;
class ModulePartition;

class AnalysisContext {
 public:
  /// Dense per-snapshot id (token, RS, or HT depending on column).
  using Local = uint32_t;
  /// "Not interned" sentinel for every Local-valued lookup.
  static constexpr Local kNoLocal = 0xFFFFFFFFu;

  AnalysisContext() = default;

  /// Interns `history` (and, optionally, extra `universe` tokens that may
  /// appear in prospective rings but in no history RS). When `index` is
  /// provided the token -> HT column is filled from it; tokens the index
  /// does not know keep an unknown HT.
  static AnalysisContext Build(std::span<const chain::RsView> history,
                               const chain::HtIndex* index = nullptr,
                               std::span<const chain::TokenId> universe = {});

  size_t rs_count() const { return rs_count_; }
  size_t token_count() const { return token_count_; }
  size_t ht_count() const { return ht_count_; }

  // -- RS column --------------------------------------------------------

  chain::RsId rs_id(Local rs) const { return rs_ids_[rs]; }
  chain::Timestamp proposed_at(Local rs) const { return proposed_at_[rs]; }
  const chain::DiversityRequirement& requirement(Local rs) const {
    return requirement_[rs];
  }

  /// Member tokens of RS `rs` as locals, in ascending external-id order
  /// (== ascending local order, since locals are rank-in-sorted-order).
  std::span<const Local> Members(Local rs) const {
    return {member_tokens_ + member_offsets_[rs],
            member_offsets_[rs + 1] - member_offsets_[rs]};
  }

  /// Local of an external RsId, or kNoLocal.
  Local LocalOfRs(chain::RsId id) const;

  /// Reconstructs the adversary-visible view of RS `rs` (adapter paths).
  chain::RsView ViewOf(Local rs) const;

  // -- token column ------------------------------------------------------

  chain::TokenId token_id(Local token) const { return token_ids_[token]; }

  /// Local of an external TokenId (binary search over the sorted token
  /// column), or kNoLocal when the token is not interned.
  Local LocalOfToken(chain::TokenId id) const;

  /// RSs containing token `token` as locals, ascending (== history order).
  std::span<const Local> RsOfToken(Local token) const {
    if (rs_tails_ == nullptr) {
      return {token_rs_ + token_rs_offsets_[token],
              token_rs_offsets_[token + 1] - token_rs_offsets_[token]};
    }
    return TailRsOfToken(token);
  }

  /// True when RS `rs` contains token local `token` (binary search over
  /// the token's RS list, which is typically tiny).
  bool RsContains(Local rs, Local token) const;

  // -- flat token -> HT column ------------------------------------------

  /// Dense HT id of a token, or kNoLocal when no HtIndex was supplied or
  /// the index did not know the token.
  Local HtLocalOf(Local token) const { return token_ht_[token]; }

  /// External HT id of a token, or chain::kInvalidTx when unknown.
  chain::TxId HtOf(Local token) const {
    Local h = token_ht_[token];
    return h == kNoLocal ? chain::kInvalidTx : ht_ids_[h];
  }

  chain::TxId ht_id(Local ht) const { return ht_ids_[ht]; }

  // -- module partition ---------------------------------------------------

  /// The module partition (analysis/module_partition.h) of this context's
  /// whole token set over its whole history. Built on the first call and
  /// shared by every copy of this context: later calls, from any thread,
  /// return the same object, which lives as long as any copy does
  /// (DESIGN.md decision 14).
  const common::Result<ModulePartition>& Modules() const;

 private:
  friend class EpochChain;

  /// Lazily filled per-view slot behind Modules() (module_partition.cc).
  struct ModuleMemo;
  static std::shared_ptr<ModuleMemo> NewModuleMemo();

  /// Built-mode storage: the context owns its columns. Chained contexts
  /// read an EpochChain's shared core instead; either way `storage_`
  /// keeps the pointed-to columns alive, so copies are O(1) and never
  /// re-derive pointers.
  struct BuiltColumns {
    std::vector<chain::TokenId> token_ids;
    std::vector<chain::RsId> rs_ids;
    std::vector<chain::Timestamp> proposed_at;
    std::vector<chain::DiversityRequirement> requirement;
    std::unordered_map<chain::RsId, Local> rs_local;
    std::vector<uint32_t> member_offsets;  // size rs_count + 1
    std::vector<Local> member_tokens;
    std::vector<uint32_t> token_rs_offsets;  // size token_count + 1
    std::vector<Local> token_rs;
    std::vector<Local> token_ht;
    std::vector<chain::TxId> ht_ids;
  };

  /// Chained-mode token -> RS lookup over the epoch core's per-token tail
  /// buffers, clipped to this view's sealed RS count (context.cc).
  std::span<const Local> TailRsOfToken(Local token) const;

  // tm-owns: keep-alive of the storage every pointer below reads (the
  // BuiltColumns block in built mode, the shared EpochCore in chained
  // mode). Shared, so copying a context is cheap and always safe.
  std::shared_ptr<const void> storage_;

  // Unified pointer read surface. Built contexts point into their own
  // BuiltColumns; chained contexts point into the epoch core's sealed
  // column prefixes. All spans handed out alias this storage.
  // tm-borrows(storage_): every raw pointer below.
  const chain::TokenId* token_ids_ = nullptr;
  const chain::RsId* rs_ids_ = nullptr;
  const chain::Timestamp* proposed_at_ = nullptr;
  const chain::DiversityRequirement* requirement_ = nullptr;
  // tm-borrows(storage_): built-mode external-id map (null when chained;
  // chained RS ids are ascending, so LocalOfRs binary-searches rs_ids_).
  const std::unordered_map<chain::RsId, Local>* rs_local_ = nullptr;
  // tm-borrows(storage_): CSR columns (member CSR serves both modes).
  const uint32_t* member_offsets_ = nullptr;
  const Local* member_tokens_ = nullptr;
  const uint32_t* token_rs_offsets_ = nullptr;
  const Local* token_rs_ = nullptr;
  // tm-borrows(storage_): chained-mode per-token tail table (null when
  // built). Slot pointers are atomics because a concurrent epoch append
  // may regrow a token's buffer while this sealed view reads it.
  const std::atomic<const Local*>* rs_tails_ = nullptr;
  // tm-borrows(storage_): flat token -> dense HT column and dense -> external.
  const Local* token_ht_ = nullptr;
  const chain::TxId* ht_ids_ = nullptr;

  size_t token_count_ = 0;
  size_t rs_count_ = 0;
  size_t ht_count_ = 0;

  // Every Build()/View() result starts with a fresh, empty memo; copies
  // share it, so a view's partition is built at most once.
  std::shared_ptr<ModuleMemo> module_memo_ = NewModuleMemo();
};

}  // namespace tokenmagic::analysis
