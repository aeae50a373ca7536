#include "chain/ledger.h"

#include <algorithm>

#include "common/macros.h"
#include "common/strings.h"

namespace tokenmagic::chain {

common::Result<RsId> Ledger::Propose(std::vector<TokenId> members,
                                     TokenId spent,
                                     DiversityRequirement requirement) {
  using common::Status;
  if (members.empty()) {
    return Status::InvalidArgument("ring signature must not be empty");
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());
  if (!std::binary_search(members.begin(), members.end(), spent)) {
    return Status::InvalidArgument(
        "spent token is not a member of the ring signature");
  }
  if (auto it = spent_tokens_.find(spent); it != spent_tokens_.end()) {
    return Status::AlreadyExists(common::StrFormat(
        "token %llu already spent by rs %llu",
        static_cast<unsigned long long>(spent),
        static_cast<unsigned long long>(it->second)));
  }

  RsRecord record;
  record.view.id = records_.size();
  record.view.members = std::move(members);
  record.view.proposed_at = now();
  record.view.requirement = requirement;
  record.spent = spent;

  spent_tokens_.emplace(spent, record.view.id);
  records_.push_back(std::move(record));
  return records_.back().view.id;
}

common::Result<RsId> Ledger::ProposeBlind(std::vector<TokenId> members,
                                          DiversityRequirement requirement) {
  using common::Status;
  if (members.empty()) {
    return Status::InvalidArgument("ring signature must not be empty");
  }
  std::sort(members.begin(), members.end());
  members.erase(std::unique(members.begin(), members.end()), members.end());

  RsRecord record;
  record.view.id = records_.size();
  record.view.members = std::move(members);
  record.view.proposed_at = now();
  record.view.requirement = requirement;
  record.spent = kInvalidToken;

  records_.push_back(std::move(record));
  return records_.back().view.id;
}

const RsView& Ledger::view(RsId id) const {
  TM_CHECK(id < records_.size());
  return records_[id].view;
}

std::vector<RsView> Ledger::Views() const {
  std::vector<RsView> out;
  out.reserve(records_.size());
  for (const RsRecord& record : records_) out.push_back(record.view);
  return out;
}

TokenId Ledger::GroundTruthSpent(RsId id) const {
  TM_CHECK(id < records_.size());
  return records_[id].spent;
}

}  // namespace tokenmagic::chain
