// Super RSs, fresh tokens, and the module view of a mixin universe
// (Definitions 7 and 8, first practical configuration, Section 6.1).
//
// Under the first practical configuration every RS is either a superset of
// an existing RS or disjoint from it, so the RSs over a batch form laminar
// chains whose maximal elements — the *super RSs* — partition the covered
// tokens. Tokens in no RS are *fresh*. A new RS is assembled from whole
// modules: super RSs and/or fresh tokens.
//
// ModuleUniverse is the selectors' handle on one dense
// analysis::ModulePartition plus the AnalysisContext whose ids it uses.
// The module-based selectors obtain it through ForInstance(), which reuses
// the partition memoized on the instance's context when the universe is
// exactly that context's token set (built once per view, on the first
// selection against it), and otherwise builds one per call over the same
// context. Both paths yield the same partition type, so one set of greedy
// loops serves them (DESIGN.md decision 14).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "analysis/module_partition.h"
#include "chain/types.h"
#include "common/status.h"

namespace tokenmagic::core {

/// One selectable unit: a super RS or a single fresh token, materialized
/// with external ids (diagnostics and tests; the selectors read the dense
/// partition instead).
struct Module {
  /// Dense module index within its universe.
  size_t index = 0;
  bool is_fresh = false;
  /// Valid when !is_fresh: the super RS's id.
  chain::RsId super_rs = chain::kInvalidRs;
  /// Member tokens, sorted ascending (size 1 for fresh tokens).
  std::vector<chain::TokenId> tokens;
  /// v_i: number of history RSs (itself included) that are subsets of this
  /// super RS. 0 for fresh tokens.
  size_t subset_count = 0;

  size_t size() const { return tokens.size(); }
};

/// The module decomposition of a mixin universe plus its RS history.
class ModuleUniverse {
 public:
  /// Builds the decomposition over a caller-owned context, which must
  /// have been interned from exactly this `history` span (and a universe
  /// covering `universe`) and must outlive the result. `history` must be
  /// the RSs over `universe` (e.g. the related RS set of the batch) in
  /// proposal order and must respect the first practical configuration; a
  /// violating history yields an InvalidArgument status. Always builds;
  /// see ForInstance() for the memoized path.
  [[nodiscard]] static common::Result<ModuleUniverse> Build(
      std::span<const chain::TokenId> universe,
      std::span<const chain::RsView> history,
      const analysis::AnalysisContext& context);

  /// The decomposition a selection over (`universe`, `history`) runs on.
  /// When the `context`'s interned token set equals `universe` (checked
  /// by content) this is the context's memoized partition; otherwise it
  /// is built per call as by Build().
  [[nodiscard]] static common::Result<ModuleUniverse> ForInstance(
      std::span<const chain::TokenId> universe,
      std::span<const chain::RsView> history,
      const analysis::AnalysisContext& context);

  size_t module_count() const { return partition_->module_count(); }
  /// Materialized copy of one module.
  Module module(size_t index) const;
  /// Token count of one module.
  size_t module_size(size_t index) const {
    return partition_->ModuleSize(index);
  }

  /// Index of the module containing `token` (every universe token is in
  /// exactly one module).
  size_t ModuleOfToken(chain::TokenId token) const;

  /// Indices of fresh-token modules / super-RS modules.
  std::vector<size_t> FreshModuleIndices() const;
  std::vector<size_t> SuperRsModuleIndices() const;

  /// History RSs whose members are subsets of the given module's token set
  /// (empty for fresh modules).
  std::vector<chain::RsId> SubsetRsOf(size_t module_index) const;

  /// Total tokens across all modules (== universe size).
  size_t token_count() const { return partition_->token_count(); }

  /// The dense partition and the context whose ids it is expressed in.
  const analysis::ModulePartition& partition() const { return *partition_; }
  const analysis::AnalysisContext& context() const { return *context_; }

 private:
  ModuleUniverse() = default;

  // tm-owns: a per-call partition (owner id: owned_); null when the
  // partition is the context's memo.
  std::shared_ptr<const void> owned_;
  // tm-borrows(caller): the instance's context, kept alive by its caller.
  const analysis::AnalysisContext* context_ = nullptr;
  // Points into owned_ or into context_'s memo.
  const analysis::ModulePartition* partition_ = nullptr;
};

}  // namespace tokenmagic::core
