// Frozen copies of the span-based analysis paths; see span_analysis.h.
#include "reference/span_analysis.h"

#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

namespace tokenmagic::reference {

analysis::RelatedSetResult ComputeRelatedSet(
    std::span<const chain::TokenId> target_tokens,
    std::span<const chain::RsView> history) {
  // Token -> indices of history RSs containing it.
  std::unordered_map<chain::TokenId, std::vector<size_t>> token_to_rs;
  for (size_t i = 0; i < history.size(); ++i) {
    for (chain::TokenId t : history[i].members) {
      token_to_rs[t].push_back(i);
    }
  }

  analysis::RelatedSetResult result;
  std::unordered_set<size_t> visited;
  std::deque<std::pair<size_t, size_t>> frontier;  // (history index, level)

  auto enqueue_for_tokens = [&](std::span<const chain::TokenId> tokens,
                                size_t level) {
    for (chain::TokenId t : tokens) {
      auto it = token_to_rs.find(t);
      if (it == token_to_rs.end()) continue;
      for (size_t idx : it->second) {
        if (visited.insert(idx).second) {
          frontier.emplace_back(idx, level);
        }
      }
    }
  };

  enqueue_for_tokens(target_tokens, 0);
  while (!frontier.empty()) {
    auto [idx, level] = frontier.front();
    frontier.pop_front();
    result.related.push_back(analysis::RelatedRs{history[idx].id, level});
    enqueue_for_tokens(history[idx].members, level + 1);
  }
  return result;
}

analysis::AnalysisResult Cascade(
    std::span<const chain::RsView> history,
    const analysis::SideInformation& side_info) {
  analysis::AnalysisResult result;
  // Working copies of member sets with known-spent tokens removed.
  std::vector<std::vector<chain::TokenId>> members;
  members.reserve(history.size());
  for (const chain::RsView& view : history) members.push_back(view.members);

  std::unordered_set<chain::TokenId>& spent = result.spent_tokens;
  std::unordered_map<chain::RsId, chain::TokenId>& revealed =
      result.revealed_spends;

  // Seed with side information.
  std::unordered_map<size_t, chain::TokenId> pinned;
  for (const chain::TokenRsPair& pair : side_info.revealed) {
    for (size_t i = 0; i < history.size(); ++i) {
      if (history[i].id == pair.rs) {
        pinned.emplace(i, pair.token);
        spent.insert(pair.token);
        revealed.emplace(pair.rs, pair.token);
      }
    }
  }

  // Token -> RS-index set of a *tight* sub-family (|tokens| == |RSs|)
  // that provably consumes it. RSs outside the owner set can never spend
  // such a token.
  std::unordered_map<chain::TokenId, std::unordered_set<size_t>>
      tight_owner;

  bool changed = true;
  while (changed) {
    changed = false;

    // Rule 1 (zero-mixin / singleton): after deleting tokens known to be
    // spent *elsewhere*, an RS with a single remaining member spends it.
    for (size_t i = 0; i < history.size(); ++i) {
      auto it = pinned.find(i);
      if (it != pinned.end()) {
        // Already resolved; its spend removes that token from others below.
        continue;
      }
      std::vector<chain::TokenId>& mem = members[i];
      std::erase_if(mem, [&](chain::TokenId t) {
        // A token revealed as spent in a *different* RS cannot be this
        // RS's spend. (A token only provably "spent somewhere" cannot be
        // removed: this RS might be where it is spent.)
        for (const auto& [rs_id, tok] : revealed) {
          if (tok == t && rs_id != history[i].id) return true;
        }
        // A token consumed inside a tight sub-family that excludes this
        // RS cannot be this RS's spend either.
        auto owner = tight_owner.find(t);
        if (owner != tight_owner.end() && owner->second.count(i) == 0) {
          return true;
        }
        return false;
      });
      if (mem.size() == 1) {
        pinned.emplace(i, mem.front());
        revealed.emplace(history[i].id, mem.front());
        spent.insert(mem.front());
        changed = true;
      }
    }

    // Rule 2 (Theorem 4.1 via neighbor sets): for each token, the set of
    // RSs containing it; if the union of their members has exactly as many
    // tokens as there are RSs, all those tokens are spent.
    std::unordered_map<chain::TokenId, std::vector<size_t>> neighbor;
    for (size_t i = 0; i < history.size(); ++i) {
      for (chain::TokenId t : history[i].members) {
        neighbor[t].push_back(i);
      }
    }
    for (const auto& [token, rs_list] : neighbor) {
      std::unordered_set<chain::TokenId> union_tokens;
      for (size_t i : rs_list) {
        union_tokens.insert(history[i].members.begin(),
                            history[i].members.end());
      }
      if (union_tokens.size() == rs_list.size()) {
        std::unordered_set<size_t> owners(rs_list.begin(), rs_list.end());
        for (chain::TokenId t : union_tokens) {
          if (spent.insert(t).second) changed = true;
          auto [it, inserted] = tight_owner.emplace(t, owners);
          if (!inserted && it->second.size() > owners.size()) {
            // Keep the tightest (smallest) owner set for sharper
            // elimination.
            it->second = owners;
            changed = true;
          }
          if (inserted) changed = true;
        }
      }
    }

    // Rule 3 (Theorem 4.1 per connected component): group RSs that
    // transitively share tokens; a component covering exactly as many
    // tokens as it has RSs spends all of them. This catches closures the
    // per-token rule misses (e.g. the 3-cycle {1,2},{2,3},{1,3}).
    {
      std::vector<size_t> parent(history.size());
      for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
      std::function<size_t(size_t)> find = [&](size_t x) {
        while (parent[x] != x) {
          parent[x] = parent[parent[x]];
          x = parent[x];
        }
        return x;
      };
      for (const auto& [token, rs_list] : neighbor) {
        for (size_t i = 1; i < rs_list.size(); ++i) {
          parent[find(rs_list[i])] = find(rs_list[0]);
        }
      }
      std::unordered_map<size_t, std::vector<size_t>> components;
      for (size_t i = 0; i < history.size(); ++i) {
        components[find(i)].push_back(i);
      }
      for (const auto& [root, rs_indices] : components) {
        std::unordered_set<chain::TokenId> union_tokens;
        for (size_t i : rs_indices) {
          union_tokens.insert(history[i].members.begin(),
                              history[i].members.end());
        }
        if (union_tokens.size() == rs_indices.size()) {
          std::unordered_set<size_t> owners(rs_indices.begin(),
                                            rs_indices.end());
          for (chain::TokenId t : union_tokens) {
            if (spent.insert(t).second) changed = true;
            auto [it, inserted] = tight_owner.emplace(t, owners);
            if (!inserted && it->second.size() > owners.size()) {
              it->second = owners;
              changed = true;
            }
            if (inserted) changed = true;
          }
        }
      }
    }
  }

  for (const auto& [index, token] : pinned) {
    result.possible_spends[history[index].id] = {token};
  }
  return result;
}

size_t CountInferableSpent(
    std::span<const chain::RsView> history) {
  analysis::AnalysisResult result = Cascade(history);
  return result.spent_tokens.size();
}

}  // namespace tokenmagic::reference
