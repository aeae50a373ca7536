#include "analysis/module_partition.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/macros.h"
#include "common/mutex.h"
#include "common/strings.h"

namespace tokenmagic::analysis {

namespace {

using Local = AnalysisContext::Local;
constexpr Local kNoLocal = AnalysisContext::kNoLocal;

/// True when sorted spans `a` and `b` share no element.
bool SortedDisjoint(std::span<const Local> a, std::span<const Local> b) {
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      return false;
    }
  }
  return true;
}

/// True when sorted span `small` is a subset of sorted span `big`.
bool SortedSubset(std::span<const Local> small, std::span<const Local> big) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

/// The first partially overlapping RS pair in (i, j) history order, as an
/// InvalidArgument. Quadratic, so it only runs once the inverted-index
/// check has found that such a pair exists.
common::Status PartialOverlapError(const AnalysisContext& context) {
  const Local rs_count = static_cast<Local>(context.rs_count());
  for (Local i = 0; i < rs_count; ++i) {
    for (Local j = i + 1; j < rs_count; ++j) {
      std::span<const Local> a = context.Members(i);
      std::span<const Local> b = context.Members(j);
      if (!SortedDisjoint(a, b) && !SortedSubset(a, b) &&
          !SortedSubset(b, a)) {
        return common::Status::InvalidArgument(common::StrFormat(
            "history violates the first practical configuration: rs %llu "
            "and rs %llu partially overlap",
            static_cast<unsigned long long>(context.rs_id(i)),
            static_cast<unsigned long long>(context.rs_id(j))));
      }
    }
  }
  TM_CHECK(false && "inverted-index check reported a phantom overlap");
  return common::Status::OK();
}

/// Laminarity via the inverted index: a partial overlap needs a shared
/// token, and among the RSs sharing one token laminarity means a subset
/// chain, so checking size-adjacent pairs per token is exact. Near-linear
/// in the incidence instead of O(|history|²).
bool IsLaminar(const AnalysisContext& context) {
  std::vector<Local> chain_rs;
  for (Local t = 0; t < static_cast<Local>(context.token_count()); ++t) {
    std::span<const Local> rs_list = context.RsOfToken(t);
    if (rs_list.size() < 2) continue;
    chain_rs.assign(rs_list.begin(), rs_list.end());
    std::stable_sort(chain_rs.begin(), chain_rs.end(), [&](Local a, Local b) {
      return context.Members(a).size() < context.Members(b).size();
    });
    for (size_t k = 0; k + 1 < chain_rs.size(); ++k) {
      if (!SortedSubset(context.Members(chain_rs[k]),
                        context.Members(chain_rs[k + 1]))) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

common::Result<ModulePartition> ModulePartition::Build(
    const AnalysisContext& context, std::span<const chain::TokenId> universe) {
  using common::Status;
  const size_t n = context.token_count();
  const Local rs_count = static_cast<Local>(context.rs_count());

  // Universe membership over token locals. Universes are usually sorted,
  // so try the local after the previous one before binary-searching.
  std::vector<char> in_universe(n, 0);
  Local next = 0;
  for (chain::TokenId t : universe) {
    Local local = next < n && context.token_id(next) == t
                      ? next
                      : context.LocalOfToken(t);
    TM_CHECK(local != kNoLocal);
    in_universe[local] = 1;
    next = local + 1;
  }

  for (Local r = 0; r < rs_count; ++r) {
    for (Local t : context.Members(r)) {
      if (in_universe[t] == 0) {
        return Status::InvalidArgument(common::StrFormat(
            "rs %llu contains token %llu outside the universe",
            static_cast<unsigned long long>(context.rs_id(r)),
            static_cast<unsigned long long>(context.token_id(t))));
      }
    }
  }
  if (!IsLaminar(context)) return PartialOverlapError(context);

  // Super RSs (Definition 7): scan from the latest proposal backwards; an
  // RS none of whose tokens a later RS already covers is maximal. By
  // laminarity a covered RS is wholly inside its covering super.
  std::vector<Local> order(rs_count);
  for (Local r = 0; r < rs_count; ++r) order[r] = r;
  std::stable_sort(order.begin(), order.end(), [&](Local a, Local b) {
    return context.proposed_at(a) > context.proposed_at(b);
  });
  std::vector<char> covered(n, 0);
  ModulePartition p;
  for (Local r : order) {
    std::span<const Local> members = context.Members(r);
    bool any_covered = std::any_of(members.begin(), members.end(),
                                   [&](Local t) { return covered[t] != 0; });
    if (any_covered) continue;
    p.super_rs_.push_back(r);
    for (Local t : members) covered[t] = 1;
  }
  std::sort(p.super_rs_.begin(), p.super_rs_.end());
  const size_t supers = p.super_rs_.size();

  p.module_of_token_.assign(n, kNoLocal);
  for (size_t s = 0; s < supers; ++s) {
    for (Local t : context.Members(p.super_rs_[s])) {
      p.members_.push_back(t);
      p.module_of_token_[t] = static_cast<Local>(s);
    }
    p.member_offsets_.push_back(static_cast<uint32_t>(p.members_.size()));
  }
  // Fresh tokens (Definition 8): universe tokens in no RS, ascending.
  for (Local t = 0; t < static_cast<Local>(n); ++t) {
    if (in_universe[t] == 0 || covered[t] != 0) continue;
    p.module_of_token_[t] = static_cast<Local>(p.member_offsets_.size() - 1);
    p.members_.push_back(t);
    p.member_offsets_.push_back(static_cast<uint32_t>(p.members_.size()));
  }

  // Subset RSs per super, in history order. Supers partition the covered
  // tokens, so a non-empty RS can only be inside the super covering its
  // first member. An empty RS is inside every super (and is a token-less
  // super itself, since it covers nothing).
  std::vector<Local> home(rs_count, kNoLocal);
  std::vector<uint32_t> counts(supers, 0);
  size_t empty_rs = 0;
  for (Local r = 0; r < rs_count; ++r) {
    std::span<const Local> members = context.Members(r);
    if (members.empty()) {
      ++empty_rs;
      continue;
    }
    Local s = p.module_of_token_[members.front()];
    if (s == kNoLocal || s >= supers) continue;
    if (SortedSubset(members, context.Members(p.super_rs_[s]))) {
      home[r] = s;
      ++counts[s];
    }
  }
  for (size_t s = 0; s < supers; ++s) {
    p.subset_offsets_.push_back(p.subset_offsets_.back() + counts[s] +
                                static_cast<uint32_t>(empty_rs));
  }
  p.subset_rs_.resize(p.subset_offsets_.back());
  std::vector<uint32_t> cursor(p.subset_offsets_.begin(),
                               p.subset_offsets_.end() - 1);
  for (Local r = 0; r < rs_count; ++r) {
    if (home[r] != kNoLocal) {
      p.subset_rs_[cursor[home[r]]++] = r;
    } else if (context.Members(r).empty()) {
      for (size_t s = 0; s < supers; ++s) p.subset_rs_[cursor[s]++] = r;
    }
  }

  for (Local t = 0; t < static_cast<Local>(n); ++t) {
    if (in_universe[t] != 0 && context.HtLocalOf(t) == kNoLocal) {
      p.unknown_ht_token_ = t;
      break;
    }
  }
  return p;
}

/// The per-view memo behind AnalysisContext::Modules(): filled once under
/// `fill_mu`, then read lock-free through `ready`.
struct AnalysisContext::ModuleMemo {
  common::Mutex fill_mu;  // tm-lock-rank(90)
  std::unique_ptr<const common::Result<ModulePartition>> filled
      TM_GUARDED_BY(fill_mu);
  std::atomic<const common::Result<ModulePartition>*> ready{nullptr};
};

std::shared_ptr<AnalysisContext::ModuleMemo> AnalysisContext::NewModuleMemo() {
  return std::make_shared<ModuleMemo>();
}

const common::Result<ModulePartition>& AnalysisContext::Modules() const {
  ModuleMemo& memo = *module_memo_;
  // tm-consumes(module_partition)
  const common::Result<ModulePartition>* ready =
      memo.ready.load(std::memory_order_acquire);
  if (ready != nullptr) return *ready;
  common::MutexLock lock(&memo.fill_mu);
  if (memo.filled == nullptr) {
    memo.filled = std::make_unique<const common::Result<ModulePartition>>(
        ModulePartition::Build(*this, {token_ids_, token_count_}));
    // tm-publishes(module_partition)
    memo.ready.store(memo.filled.get(), std::memory_order_release);
  }
  return *memo.filled;
}

}  // namespace tokenmagic::analysis
