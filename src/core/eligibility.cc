#include "core/eligibility.h"

#include <algorithm>

#include "analysis/dtrs.h"
#include "common/macros.h"

namespace tokenmagic::core {

chain::DiversityRequirement EffectiveRequirement(
    const chain::DiversityRequirement& requirement,
    const EligibilityPolicy& policy) {
  chain::DiversityRequirement effective = requirement;
  if (policy.strict_dtrs) effective.ell += 1;
  return effective;
}

std::vector<chain::TokenId> MaterializeCandidate(
    const ModuleUniverse& mu, const std::vector<size_t>& chosen_modules) {
  // Token locals sort like the external ids they stand for.
  std::vector<analysis::AnalysisContext::Local> locals;
  for (size_t index : chosen_modules) {
    std::span<const analysis::AnalysisContext::Local> members =
        mu.partition().Members(index);
    locals.insert(locals.end(), members.begin(), members.end());
  }
  std::sort(locals.begin(), locals.end());  // modules are disjoint
  std::vector<chain::TokenId> out;
  out.reserve(locals.size());
  for (analysis::AnalysisContext::Local t : locals) {
    out.push_back(mu.context().token_id(t));
  }
  return out;
}

size_t CandidateSubsetCount(const ModuleUniverse& mu,
                            const std::vector<size_t>& chosen_modules) {
  size_t count = 1;  // the candidate itself
  for (size_t index : chosen_modules) {
    count += mu.partition().SubsetRs(index).size();
  }
  return count;
}

EligibilityVerdict CheckCandidate(
    const ModuleUniverse& mu, const std::vector<size_t>& chosen_modules,
    std::span<const chain::RsView> history, const chain::HtIndex& index,
    const chain::DiversityRequirement& requirement,
    const EligibilityPolicy& policy) {
  EligibilityVerdict verdict;

  std::vector<chain::TokenId> members =
      MaterializeCandidate(mu, chosen_modules);
  chain::DiversityRequirement effective =
      EffectiveRequirement(requirement, policy);

  if (!analysis::SatisfiesRecursiveDiversity(members, index, effective)) {
    verdict.violation = EligibilityVerdict::Violation::kDiversity;
    return verdict;
  }

  size_t v_candidate = CandidateSubsetCount(mu, chosen_modules);

  if (policy.check_dtrs_explicitly) {
    if (!analysis::PracticalDtrsDiversityHolds(members, v_candidate, index,
                                               requirement)) {
      verdict.violation = EligibilityVerdict::Violation::kDtrsDiversity;
      return verdict;
    }
  }

  if (policy.check_immutability) {
    // Every history RS inside a chosen super module gets the candidate as
    // its new super RS, whose subset count is v_candidate. The partition
    // names those RSs by history position.
    for (size_t module_index : chosen_modules) {
      for (analysis::AnalysisContext::Local rs :
           mu.partition().SubsetRs(module_index)) {
        TM_CHECK(rs < history.size());
        const chain::RsView& covered = history[rs];
        if (!analysis::PracticalDtrsDiversityHolds(
                covered.members, v_candidate, index, covered.requirement)) {
          verdict.violation = EligibilityVerdict::Violation::kImmutability;
          return verdict;
        }
      }
    }
  }

  verdict.eligible = true;
  return verdict;
}

}  // namespace tokenmagic::core
