// Frozen sort-based interning oracle (reference only).
//
// This is the original from-scratch AnalysisContext::Build, kept as a
// plain struct of columns: sort and de-duplicate the token union, intern
// RSs in history order with an id -> local hash map, build the token ->
// RS inverted index as a two-pass CSR, and intern HTs in first-appearance
// order over the sorted token column. src/ interns through EpochChain
// only (a one-shot Build is one Append); the epoch-chain equivalence
// suite compares multi-epoch and one-shot views against this struct,
// accessor by accessor, so it never compares a chain with a chain.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "chain/ht_index.h"
#include "chain/types.h"

namespace tokenmagic::reference {

struct BuiltContext {
  using Local = uint32_t;
  static constexpr Local kNoLocal = 0xFFFFFFFFu;

  std::vector<chain::TokenId> token_ids;  // sorted, unique
  std::vector<chain::RsId> rs_ids;        // history order
  std::vector<chain::Timestamp> proposed_at;
  std::vector<chain::DiversityRequirement> requirement;
  std::unordered_map<chain::RsId, Local> rs_local;
  std::vector<uint32_t> member_offsets;  // rs_count + 1
  std::vector<Local> member_tokens;
  std::vector<uint32_t> token_rs_offsets;  // token_count + 1
  std::vector<Local> token_rs;
  std::vector<Local> token_ht;  // kNoLocal when unknown
  std::vector<chain::TxId> ht_ids;

  size_t token_count() const { return token_ids.size(); }
  size_t rs_count() const { return rs_ids.size(); }
  size_t ht_count() const { return ht_ids.size(); }

  std::span<const Local> Members(Local rs) const {
    return {member_tokens.data() + member_offsets[rs],
            member_offsets[rs + 1] - member_offsets[rs]};
  }
  std::span<const Local> RsOfToken(Local token) const {
    return {token_rs.data() + token_rs_offsets[token],
            token_rs_offsets[token + 1] - token_rs_offsets[token]};
  }
  Local LocalOfToken(chain::TokenId id) const;
  Local LocalOfRs(chain::RsId id) const;
};

/// Interns `history` plus extra `universe` tokens; HTs from `index` when
/// given.
BuiltContext BuildContext(std::span<const chain::RsView> history,
                          const chain::HtIndex* index = nullptr,
                          std::span<const chain::TokenId> universe = {});

}  // namespace tokenmagic::reference
