// Frozen sort-based interning oracle; see built_context.h.
#include "reference/built_context.h"

#include <algorithm>

#include "common/macros.h"

namespace tokenmagic::reference {

BuiltContext::Local BuiltContext::LocalOfToken(chain::TokenId id) const {
  auto it = std::lower_bound(token_ids.begin(), token_ids.end(), id);
  if (it == token_ids.end() || *it != id) return kNoLocal;
  return static_cast<Local>(it - token_ids.begin());
}

BuiltContext::Local BuiltContext::LocalOfRs(chain::RsId id) const {
  auto it = rs_local.find(id);
  return it == rs_local.end() ? kNoLocal : it->second;
}

BuiltContext BuildContext(std::span<const chain::RsView> history,
                          const chain::HtIndex* index,
                          std::span<const chain::TokenId> universe) {
  using Local = BuiltContext::Local;
  BuiltContext cols;

  // Token column: every token seen in the history or the universe, sorted
  // so Local == rank and member lists stay ascending in local space.
  cols.token_ids.assign(universe.begin(), universe.end());
  for (const chain::RsView& view : history) {
    cols.token_ids.insert(cols.token_ids.end(), view.members.begin(),
                          view.members.end());
  }
  std::sort(cols.token_ids.begin(), cols.token_ids.end());
  cols.token_ids.erase(
      std::unique(cols.token_ids.begin(), cols.token_ids.end()),
      cols.token_ids.end());

  // RS columns in history order.
  const size_t m = history.size();
  cols.member_offsets.push_back(0);
  for (Local r = 0; r < m; ++r) {
    const chain::RsView& view = history[r];
    cols.rs_ids.push_back(view.id);
    cols.proposed_at.push_back(view.proposed_at);
    cols.requirement.push_back(view.requirement);
    cols.rs_local.emplace(view.id, r);
    for (chain::TokenId t : view.members) {
      Local local = cols.LocalOfToken(t);
      TM_CHECK(local != BuiltContext::kNoLocal);
      cols.member_tokens.push_back(local);
    }
    cols.member_offsets.push_back(
        static_cast<uint32_t>(cols.member_tokens.size()));
  }

  // Token -> RS inverted index (CSR, two passes; per token ascending
  // because RSs are scanned in local order).
  const size_t n = cols.token_ids.size();
  cols.token_rs_offsets.assign(n + 1, 0);
  for (Local t : cols.member_tokens) ++cols.token_rs_offsets[t + 1];
  for (size_t i = 0; i < n; ++i) {
    cols.token_rs_offsets[i + 1] += cols.token_rs_offsets[i];
  }
  cols.token_rs.resize(cols.member_tokens.size());
  std::vector<uint32_t> cursor(cols.token_rs_offsets.begin(),
                               cols.token_rs_offsets.end() - 1);
  for (Local r = 0; r < m; ++r) {
    for (uint32_t k = cols.member_offsets[r]; k < cols.member_offsets[r + 1];
         ++k) {
      cols.token_rs[cursor[cols.member_tokens[k]]++] = r;
    }
  }

  // Flat token -> HT column, HTs interned in first-appearance order.
  cols.token_ht.assign(n, BuiltContext::kNoLocal);
  if (index != nullptr) {
    std::unordered_map<chain::TxId, Local> ht_local;
    for (size_t i = 0; i < n; ++i) {
      auto ht = index->TryHtOf(cols.token_ids[i]);
      if (!ht.has_value()) continue;
      auto [it, inserted] =
          ht_local.emplace(*ht, static_cast<Local>(cols.ht_ids.size()));
      if (inserted) cols.ht_ids.push_back(*ht);
      cols.token_ht[i] = it->second;
    }
  }
  return cols;
}

}  // namespace tokenmagic::reference
