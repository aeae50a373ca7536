#include "chain/types.h"

#include <algorithm>
#include <cmath>

#include "common/strings.h"

namespace tokenmagic::chain {

std::string DiversityRequirement::ToString() const {
  return common::StrFormat("(%g, %d)-diversity", c, ell);
}

bool DiversityRequirement::IsValid() const {
  return std::isfinite(c) && c >= 0.0 && ell >= 0 && ell <= kMaxDiversityEll;
}

bool RsView::Contains(TokenId token) const {
  return std::binary_search(members.begin(), members.end(), token);
}

}  // namespace tokenmagic::chain
