// The ring-signature ledger: the public history of proposed RSs.
//
// The Ledger owns RsRecords (member set + hidden ground-truth spend) and
// exposes only RsViews to analysis/selection code. It also enforces the
// UTXO invariant — a token's ground-truth spend happens at most once. The
// token -> containing RSs index (the "neighbor sets" of Section 4) lives in
// the analysis layer (AnalysisContext::RsOfToken on an EpochChain view).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "chain/types.h"
#include "common/status.h"

namespace tokenmagic::chain {

class Ledger {
 public:
  /// Appends a ring signature. `members` need not be sorted (a sorted copy
  /// is stored); `spent` must be one of `members` and must not have been
  /// spent by an earlier RS. Returns the assigned RsId.
  [[nodiscard]] common::Result<RsId> Propose(std::vector<TokenId> members, TokenId spent,
                               DiversityRequirement requirement);

  /// Appends a ring signature without ground truth — the node-side path:
  /// a verifier never learns which member is spent (double-spend
  /// protection comes from key images, not from this ledger). Records
  /// created this way return kInvalidToken from GroundTruthSpent.
  [[nodiscard]] common::Result<RsId> ProposeBlind(std::vector<TokenId> members,
                                    DiversityRequirement requirement);

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  const RsView& view(RsId id) const;
  /// All views in proposal order.
  std::vector<RsView> Views() const;

  /// Ground-truth access for test oracles and experiment evaluation only.
  TokenId GroundTruthSpent(RsId id) const;

  /// Monotone logical clock; the timestamp the next RS will receive.
  Timestamp now() const { return static_cast<Timestamp>(records_.size()); }

  /// True when some RS's ground truth spends `token`.
  bool IsSpent(TokenId token) const { return spent_tokens_.count(token) > 0; }

 private:
  std::vector<RsRecord> records_;
  std::unordered_map<TokenId, RsId> spent_tokens_;
};

}  // namespace tokenmagic::chain
