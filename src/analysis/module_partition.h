// Dense module partition of a mixin universe (Definitions 7 and 8, first
// practical configuration, Section 6.1).
//
// Under the first practical configuration every RS is either a superset
// of an existing RS or disjoint from it, so the RSs over a batch form
// laminar chains whose maximal elements — the *super RSs* — partition the
// covered tokens. Tokens in no RS are *fresh*. A new RS is assembled from
// whole modules: super RSs and/or single fresh tokens.
//
// The partition is expressed entirely in an AnalysisContext's dense ids:
// module members are token locals in one CSR array, token -> module is a
// flat column over token locals, and each super's subset RSs are history
// positions (== RS locals). HTs are read from the context's token -> HT
// column, never copied. Module order is fixed: super RSs in history
// order, then fresh tokens ascending.
//
// AnalysisContext::Modules() memoizes the partition of a view's whole
// token set on the view (DESIGN.md decision 14); Build() is the per-call
// path for any other universe.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "analysis/context.h"
#include "chain/types.h"
#include "common/status.h"

namespace tokenmagic::analysis {

class ModulePartition {
 public:
  using Local = AnalysisContext::Local;
  static constexpr Local kNoLocal = AnalysisContext::kNoLocal;

  /// Partitions `universe` (every token interned in `context`) by the
  /// context's whole history, which must be the RSs over `universe` in
  /// proposal order. A history token outside `universe` or a pair of RSs
  /// violating the first practical configuration is an InvalidArgument
  /// naming the offending RS (pair). Tokens without an HT do not fail the
  /// build; see unknown_ht_token().
  [[nodiscard]] static common::Result<ModulePartition> Build(
      const AnalysisContext& context,
      std::span<const chain::TokenId> universe);

  size_t module_count() const { return member_offsets_.size() - 1; }
  /// Modules [0, super_count()) are super RSs, the rest fresh tokens.
  size_t super_count() const { return super_rs_.size(); }
  bool is_fresh(size_t module) const { return module >= super_rs_.size(); }

  /// Member token locals of a module, ascending.
  std::span<const Local> Members(size_t module) const {
    return {members_.data() + member_offsets_[module],
            member_offsets_[module + 1] - member_offsets_[module]};
  }
  size_t ModuleSize(size_t module) const {
    return member_offsets_[module + 1] - member_offsets_[module];
  }

  /// Module of a token local, or kNoLocal for a token outside the
  /// universe.
  Local ModuleOf(Local token) const { return module_of_token_[token]; }

  /// RS local of a super module; kNoLocal for fresh modules.
  Local SuperRs(size_t module) const {
    return is_fresh(module) ? kNoLocal : super_rs_[module];
  }

  /// History positions of the RSs contained in a super module (the super
  /// itself included), ascending; empty for fresh modules. Its size is
  /// the paper's v_i.
  std::span<const Local> SubsetRs(size_t module) const {
    if (is_fresh(module)) return {};
    return {subset_rs_.data() + subset_offsets_[module],
            subset_offsets_[module + 1] - subset_offsets_[module]};
  }

  /// Distinct universe tokens (== total module members).
  size_t token_count() const { return members_.size(); }

  /// Smallest universe token local whose HT the context does not know,
  /// or kNoLocal. Selection rejects such an instance (the greedy loops
  /// index HT counters by the context's HT ids).
  Local unknown_ht_token() const { return unknown_ht_token_; }

 private:
  std::vector<uint32_t> member_offsets_ = {0};  // module_count + 1
  std::vector<Local> members_;
  std::vector<Local> module_of_token_;  // over every context token
  std::vector<Local> super_rs_;         // per super module
  std::vector<uint32_t> subset_offsets_ = {0};  // super_count + 1
  std::vector<Local> subset_rs_;
  Local unknown_ht_token_ = kNoLocal;
};

}  // namespace tokenmagic::analysis
