#include "chain/ledger.h"

#include <gtest/gtest.h>

namespace tokenmagic::chain {
namespace {

DiversityRequirement Req(double c, int ell) { return {c, ell}; }

TEST(LedgerTest, ProposeAndRead) {
  Ledger ledger;
  auto id = ledger.Propose({3, 1, 2}, 2, Req(0.5, 3));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  const RsView& view = ledger.view(*id);
  EXPECT_EQ(view.members, (std::vector<TokenId>{1, 2, 3}));  // sorted
  EXPECT_EQ(view.requirement, Req(0.5, 3));
  EXPECT_EQ(view.proposed_at, 0u);
  EXPECT_EQ(ledger.GroundTruthSpent(*id), 2u);
}

TEST(LedgerTest, TimestampsAreMonotone) {
  Ledger ledger;
  ASSERT_TRUE(ledger.Propose({1, 2}, 1, Req(1, 1)).ok());
  ASSERT_TRUE(ledger.Propose({3, 4}, 3, Req(1, 1)).ok());
  EXPECT_EQ(ledger.view(0).proposed_at, 0u);
  EXPECT_EQ(ledger.view(1).proposed_at, 1u);
  EXPECT_EQ(ledger.now(), 2u);
}

TEST(LedgerTest, RejectsEmptyRs) {
  Ledger ledger;
  EXPECT_TRUE(ledger.Propose({}, 0, Req(1, 1)).status().IsInvalidArgument());
}

TEST(LedgerTest, RejectsSpendOutsideMembers) {
  Ledger ledger;
  EXPECT_TRUE(
      ledger.Propose({1, 2}, 5, Req(1, 1)).status().IsInvalidArgument());
}

TEST(LedgerTest, RejectsDoubleSpend) {
  Ledger ledger;
  ASSERT_TRUE(ledger.Propose({1, 2}, 1, Req(1, 1)).ok());
  auto second = ledger.Propose({1, 3}, 1, Req(1, 1));
  EXPECT_EQ(second.status().code(), common::StatusCode::kAlreadyExists);
  // Spending a different token that reuses the ring member is fine.
  EXPECT_TRUE(ledger.Propose({1, 3}, 3, Req(1, 1)).ok());
}

TEST(LedgerTest, DeduplicatesMembers) {
  Ledger ledger;
  auto id = ledger.Propose({2, 2, 1, 1}, 1, Req(1, 1));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(ledger.view(*id).members, (std::vector<TokenId>{1, 2}));
}

TEST(LedgerTest, IsSpentTracksGroundTruth) {
  Ledger ledger;
  ASSERT_TRUE(ledger.Propose({1, 2}, 2, Req(1, 1)).ok());
  EXPECT_TRUE(ledger.IsSpent(2));
  EXPECT_FALSE(ledger.IsSpent(1));
}

TEST(LedgerTest, ViewsReturnsProposalOrder) {
  Ledger ledger;
  ASSERT_TRUE(ledger.Propose({1, 2}, 1, Req(1, 1)).ok());
  ASSERT_TRUE(ledger.Propose({3, 4}, 4, Req(1, 1)).ok());
  auto views = ledger.Views();
  ASSERT_EQ(views.size(), 2u);
  EXPECT_EQ(views[0].id, 0u);
  EXPECT_EQ(views[1].id, 1u);
}

TEST(RsViewTest, ContainsUsesBinarySearch) {
  RsView view;
  view.members = {2, 5, 9};
  EXPECT_TRUE(view.Contains(5));
  EXPECT_FALSE(view.Contains(4));
  EXPECT_EQ(view.size(), 3u);
}

TEST(DiversityRequirementTest, ToStringFormat) {
  EXPECT_EQ(Req(0.6, 40).ToString(), "(0.6, 40)-diversity");
}

}  // namespace
}  // namespace tokenmagic::chain
