// ingest: wallets spend in a closed loop against one node, which mines
// every few submissions. Crypto (LSAG sign at the wallet, LSAG verify at
// submit and again at mine) and the node's write path (ledger append,
// epoch seal, snapshot invalidation) do most of the work; selection is a
// small share. The ledger grows through the run, so every block re-seals
// the batch snapshots it touched and reads run beside writes.
//
// One round is a fixed amount of work derived from the seed: set up a
// node and its wallets, then run `spends` spend operations. An untraced
// run makes exactly `rounds` rounds, whatever --seconds says, so faster
// code does not get a best-of over more samples. Every round must
// reproduce round 0's work digest exactly, and each spend is timed as its
// best over the rounds, so a host stall during one round does not land in
// the p99.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "common/strings.h"
#include "core/resilient.h"
#include "crypto/lsag.h"
#include "harness.h"
#include "node/node.h"
#include "node/wallet.h"
#include "probe.h"

namespace perfbench {
namespace {

namespace common = tokenmagic::common;
namespace core = tokenmagic::core;
namespace crypto = tokenmagic::crypto;
namespace node = tokenmagic::node;
using common::StrFormat;

struct IngestParams {
  size_t wallets = 256;
  size_t tokens_per_wallet = 4;
  /// Tokens per genesis grant: one grant is one HT.
  size_t cluster = 2;
  size_t lambda = 64;
  /// Spend operations per round.
  size_t spends = 1024;
  /// Mine after this many accepted submissions.
  size_t mine_every = 1;
  /// One spend in this many has two inputs from one batch: exactly one,
  /// at a seeded position, in every consecutive block of that many.
  /// 1 in 16 is an assumed share, not one measured on real traffic. It
  /// exceeds 1%, so the spend p99 is always a two-input spend; the share
  /// only picks which quantile of those spends the p99 lands on.
  size_t multi_every = 16;
  DiversityRequirement requirement{2.0, 2};
  /// Untraced rounds per run, exactly. A traced run makes one traced and
  /// one untraced round.
  size_t rounds = 3;
  /// Extra set-ups timed per run, beside each round's own.
  size_t extra_setups = 3;
};

IngestParams ParamsFor(bool small) {
  IngestParams params;
  if (small) {
    params.wallets = 48;
    params.spends = 96;
    params.rounds = 1;
    params.extra_setups = 0;
  }
  return params;
}

/// A failure verdict with its numbers elided, so equal causes group.
std::string Reason(const common::Status& status) {
  std::string text = status.ToString();
  std::string out;
  for (char c : text) {
    bool digit = c >= '0' && c <= '9';
    if (!digit) {
      out += c;
    } else if (out.empty() || out.back() != '#') {
      out += '#';
    }
  }
  return out;
}

enum class TokenState : uint8_t { kNone, kSpendable, kPending, kSpent };

/// A submitted spend waiting for the next block.
struct Pending {
  size_t receiver = 0;
  std::vector<TokenId> tokens;
  size_t inputs = 0;
  node::SignedTransaction tx;  ///< kept only while tracing
};

/// Per-layer figures of the node and crypto layers (traced rounds).
struct NodeLayers {
  Samples sign_us, verify_us, submit_first_q_us, submit_last_q_us;
  Samples mine_us, mine_self_us, snapshot_fill_us, snapshot_hit_us;
  double rss_setup_mb = 0.0;
  double rss_growth_mb = 0.0;
  double bytes_per_token = 0.0;
};

struct RoundResult {
  double setup_s = 0.0;
  double measured_s = 0.0;
  uint64_t attempted = 0;
  uint64_t accepted_txs = 0;
  uint64_t build_failures = 0;
  uint64_t rejected_at_submit = 0;
  uint64_t rejected_at_mine = 0;
  uint64_t multi_input_txs = 0;
  uint64_t rings = 0;
  uint64_t ring_members = 0;
  uint64_t relaxed = 0;
  size_t ledger_rs = 0;
  size_t tokens = 0;
  size_t batches = 0;
  /// Spend build time by operation; NaN where the build failed.
  std::vector<double> spend_ms;
  Samples submit_ms;
  std::string digest;
  /// Failure verdicts by "<where>: <status>", for the report.
  std::map<std::string, uint64_t> failures;

  uint64_t failed() const {
    return build_failures + rejected_at_submit + rejected_at_mine;
  }
};

class IngestRound {
 public:
  IngestRound(const IngestParams& params, uint64_t seed, SelectorProbe* probe,
              NodeLayers* layers, Report* report)
      : params_(params),
        seed_(seed),
        probe_(probe),
        layers_(layers),
        report_(report) {}

  /// Times one set-up of the starting state (node, wallets, genesis) and
  /// returns it in seconds; the round itself is not run.
  double TimeSetup() {
    int64_t t0 = NowNanos();
    Setup();
    return static_cast<double>(NowNanos() - t0) / 1e9;
  }

  RoundResult Run() {
    result_.spend_ms.assign(params_.spends, std::nan(""));
    int64_t t0 = NowNanos();
    Setup();
    result_.setup_s = static_cast<double>(NowNanos() - t0) / 1e9;
    if (layers_ != nullptr) layers_->rss_setup_mb = CurrentRssMb();
    size_t tokens_before = node_->blockchain().token_count();

    int64_t t1 = NowNanos();
    for (size_t op = 0; op < params_.spends; ++op) {
      SpendOnce(op);
      if (pending_.size() >= params_.mine_every) Mine();
    }
    if (!pending_.empty()) Mine();
    result_.measured_s = static_cast<double>(NowNanos() - t1) / 1e9;

    result_.ledger_rs = node_->ledger().size();
    result_.tokens = node_->blockchain().token_count();
    result_.batches = node_->batches().batch_count();
    if (result_.ledger_rs != ledger_expected_) {
      report_->Violation(StrFormat("ledger holds %zu rings, accepted %zu",
                                   result_.ledger_rs, ledger_expected_));
    }
    if (layers_ != nullptr) {
      layers_->rss_growth_mb = CurrentRssMb() - layers_->rss_setup_mb;
      size_t added = result_.tokens - tokens_before;
      layers_->bytes_per_token =
          added == 0 ? 0.0
                     : layers_->rss_growth_mb * 1024.0 * 1024.0 /
                           static_cast<double>(added);
    }
    digest_.Add(result_.accepted_txs);
    digest_.Add(result_.failed());
    digest_.Add(result_.ledger_rs);
    result_.digest = digest_.Hex();
    return std::move(result_);
  }

 private:
  bool tracing() const { return layers_ != nullptr; }

  void Setup() {
    node::NodeConfig config;
    config.lambda = params_.lambda;
    node_ = std::make_unique<node::Node>(config);
    for (size_t w = 0; w < params_.wallets; ++w) {
      wallets_.push_back(std::make_unique<node::Wallet>(
          StrFormat("w%zu", w), node_.get(), OpRng(seed_, ~uint64_t{w}).Next()));
    }
    owned_.assign(params_.wallets, {});
    // Genesis grants clustered `cluster` tokens per HT, as in the testbed.
    std::vector<std::vector<crypto::Point>> grants;
    std::vector<size_t> grant_owner;
    for (size_t w = 0; w < params_.wallets; ++w) {
      for (size_t left = params_.tokens_per_wallet; left > 0;) {
        size_t take = std::min(params_.cluster, left);
        std::vector<crypto::Point> grant;
        for (size_t i = 0; i < take; ++i) {
          grant.push_back(wallets_[w]->NewOutputKey());
        }
        grants.push_back(std::move(grant));
        grant_owner.push_back(w);
        left -= take;
      }
    }
    auto minted = node_->Genesis(grants);
    for (size_t g = 0; g < minted.size(); ++g) {
      for (TokenId token : minted[g]) Receive(grant_owner[g], token);
    }
  }

  void Receive(size_t wallet, TokenId token) {
    common::Status claimed = wallets_[wallet]->Claim(token);
    if (!claimed.ok()) {
      report_->Violation("claim of a minted token failed: " +
                         claimed.ToString());
      return;
    }
    if (state_.size() <= token) state_.resize(token + 1, TokenState::kNone);
    state_[token] = TokenState::kSpendable;
    owned_[wallet].push_back(token);
  }

  /// Unspent, not pending, and in a sealed batch (a filling batch is too
  /// small a mixin universe to meet the requirement).
  bool Spendable(TokenId token) const {
    return state_[token] == TokenState::kSpendable &&
           node_->batches().BatchOfToken(token).sealed;
  }

  /// `want` spendable tokens of `wallet` from one batch, or none.
  std::vector<TokenId> PickTokens(size_t wallet, size_t want,
                                  common::Rng* rng) const {
    std::vector<TokenId> spendable;
    for (TokenId t : owned_[wallet]) {
      if (Spendable(t)) spendable.push_back(t);
    }
    if (spendable.empty()) return {};
    std::vector<TokenId> tokens = {
        spendable[rng->NextBounded(spendable.size())]};
    size_t batch = node_->batches().BatchOfToken(tokens[0]).index;
    for (TokenId t : spendable) {
      if (tokens.size() == want) break;
      if (t != tokens[0] && node_->batches().BatchOfToken(t).index == batch) {
        tokens.push_back(t);
      }
    }
    return tokens.size() == want ? tokens : std::vector<TokenId>{};
  }

  void SpendOnce(size_t op) {
    common::Rng rng = OpRng(seed_, op);
    ++result_.attempted;
    digest_.Add(op);
    const bool multi = op % params_.multi_every ==
                       OpRng(~seed_, op / params_.multi_every)
                           .NextBounded(params_.multi_every);
    // The first wallet from a seeded start that can make the spend; a
    // two-input spend falls back to one input only when no wallet holds
    // two spendable tokens of one batch.
    size_t start = rng.NextBounded(params_.wallets);
    size_t wallet = params_.wallets;
    std::vector<TokenId> tokens;
    for (size_t want = multi ? 2 : 1; want > 0 && tokens.empty(); --want) {
      for (size_t k = 0; k < params_.wallets && tokens.empty(); ++k) {
        wallet = (start + k) % params_.wallets;
        tokens = PickTokens(wallet, want, &rng);
      }
    }
    if (tokens.empty()) {
      report_->Violation(StrFormat("spend %zu found no spendable token", op));
      ++result_.build_failures;
      return;
    }
    size_t receiver = (wallet + 1 + rng.NextBounded(params_.wallets - 1)) %
                      params_.wallets;
    std::vector<crypto::Point> output_keys = {wallets_[receiver]->NewOutputKey()};
    digest_.Add(wallet);
    for (TokenId t : tokens) digest_.Add(t);

    if (tracing()) ProbeSnapshots(tokens);
    probe_->BeginOp(op);
    int64_t t0 = NowNanos();
    auto built = wallets_[wallet]->BuildSpendMulti(
        tokens, params_.requirement, *probe_, output_keys,
        StrFormat("spend %zu", op));
    int64_t spend_nanos = NowNanos() - t0;
    if (!built.ok()) {
      ++result_.build_failures;
      ++result_.failures["build: " + Reason(built.status())];
      digest_.Add(static_cast<uint64_t>(built.status().code()));
      if (!IsTypedFailure(built.status())) {
        report_->Violation("untyped spend failure: " + built.status().ToString());
      }
      return;
    }
    node::SignedTransaction tx = std::move(built).value();
    CheckSpend(tokens, tx);
    result_.spend_ms[op] = static_cast<double>(spend_nanos) / 1e6;
    if (tokens.size() > 1) ++result_.multi_input_txs;

    Pending pending;
    if (tracing()) {
      layers_->sign_us.Add(
          static_cast<double>(spend_nanos - probe_->op_inside_nanos()) / 1e3);
      for (size_t i = 0; i < tx.inputs.size(); ++i) {
        std::string message = tx.SigningMessage(i);
        int64_t v0 = NowNanos();
        bool valid = crypto::Lsag::Verify(tx.inputs[i].signature, message);
        layers_->verify_us.Add(static_cast<double>(NowNanos() - v0) / 1e3);
        if (!valid) report_->Violation("wallet produced an invalid LSAG");
      }
      pending.tx = tx;
    }

    int64_t s0 = NowNanos();
    common::Status verdict =
        node_->SubmitTransaction(std::move(tx), std::move(output_keys));
    double submit_us = static_cast<double>(NowNanos() - s0) / 1e3;
    result_.submit_ms.Add(submit_us / 1e3);
    if (tracing()) {
      if (op < params_.spends / 4) layers_->submit_first_q_us.Add(submit_us);
      if (op >= params_.spends - params_.spends / 4) {
        layers_->submit_last_q_us.Add(submit_us);
      }
    }
    digest_.Add(static_cast<uint64_t>(verdict.code()));
    if (!verdict.ok()) {
      ++result_.rejected_at_submit;
      ++result_.failures["submit: " + Reason(verdict)];
      if (!IsTypedFailure(verdict)) {
        report_->Violation("untyped submit rejection: " + verdict.ToString());
      }
      return;
    }
    for (TokenId t : tokens) state_[t] = TokenState::kPending;
    pending.receiver = receiver;
    pending.inputs = tokens.size();
    pending.tokens = std::move(tokens);
    pending_.push_back(std::move(pending));
  }

  /// Output checks on a built spend; also folds its rings into the digest
  /// and the ring-quality counts.
  void CheckSpend(const std::vector<TokenId>& tokens,
                  const node::SignedTransaction& tx) {
    const std::vector<SelectionRecord>& records = probe_->records();
    if (tx.inputs.size() != tokens.size() || records.size() != tokens.size()) {
      report_->Violation("spend inputs do not match its selections");
      return;
    }
    for (size_t i = 0; i < tokens.size(); ++i) {
      const std::vector<TokenId>& ring = tx.inputs[i].ring;
      const DiversityRequirement& satisfied =
          records[i].report.satisfied_requirement;
      std::string bad =
          CheckRing(tokens[i], ring, satisfied, node_->ht_index());
      if (!bad.empty()) report_->Violation(bad);
      if (ring != records[i].members) {
        report_->Violation("transaction ring differs from the selected ring");
      }
      ++result_.rings;
      result_.ring_members += ring.size();
      if (Relaxed(satisfied, params_.requirement)) ++result_.relaxed;
      digest_.AddRing(ring);
    }
  }

  /// Times the wallet's snapshot fetch ahead of the spend: a fetch that
  /// returns a different snapshot than the batch's last one sealed a new
  /// snapshot (fill); the same one is a cache hit.
  void ProbeSnapshots(const std::vector<TokenId>& tokens) {
    std::set<size_t> batches;
    for (TokenId t : tokens) batches.insert(node_->batches().BatchOfToken(t).index);
    for (size_t batch : batches) {
      int64_t t0 = NowNanos();
      auto snapshot = node_->AnalysisSnapshotShared(batch);
      double us = static_cast<double>(NowNanos() - t0) / 1e3;
      auto& last = last_snapshot_[batch];
      (snapshot == last ? layers_->snapshot_hit_us : layers_->snapshot_fill_us)
          .Add(us);
      last = std::move(snapshot);
    }
  }

  void Mine() {
    int64_t verify_nanos = 0;
    if (tracing()) {
      node::Verifier verifier = node_->MakeVerifier();
      for (const Pending& p : pending_) {
        int64_t v0 = NowNanos();
        (void)verifier.Verify(p.tx);
        verify_nanos += NowNanos() - v0;
      }
    }
    size_t ledger_before = node_->ledger().size();
    int64_t t0 = NowNanos();
    node::MinedBlock mined = node_->MineBlock();
    int64_t mine_nanos = NowNanos() - t0;
    if (tracing()) {
      layers_->mine_us.Add(static_cast<double>(mine_nanos) / 1e3);
      layers_->mine_self_us.Add(
          static_cast<double>(mine_nanos - verify_nanos) / 1e3);
    }

    std::vector<bool> rejected(pending_.size(), false);
    for (const node::MinedBlock::RejectedTx& r : mined.rejected) {
      if (r.index >= pending_.size() || !IsTypedFailure(r.status)) {
        report_->Violation("mine-time rejection without a typed status: " +
                           r.status.ToString());
        continue;
      }
      rejected[r.index] = true;
      ++result_.failures["mine: " + Reason(r.status)];
      digest_.Add(r.index);
      digest_.Add(static_cast<uint64_t>(r.status.code()));
    }
    size_t accepted = 0;
    size_t inputs = 0;
    for (size_t k = 0; k < pending_.size(); ++k) {
      Pending& p = pending_[k];
      if (rejected[k]) {
        ++result_.rejected_at_mine;
        for (TokenId t : p.tokens) state_[t] = TokenState::kSpendable;
        continue;
      }
      for (TokenId t : p.tokens) state_[t] = TokenState::kSpent;
      if (accepted < mined.outputs.size()) {
        for (TokenId out : mined.outputs[accepted]) Receive(p.receiver, out);
      }
      ++accepted;
      inputs += p.inputs;
    }
    if (mined.transactions != accepted || mined.outputs.size() != accepted) {
      report_->Violation(StrFormat("block mined %zu transactions, expected %zu",
                                   mined.transactions, accepted));
    }
    if (node_->ledger().size() != ledger_before + inputs) {
      report_->Violation(StrFormat(
          "ledger grew by %zu rings for %zu accepted inputs",
          node_->ledger().size() - ledger_before, inputs));
    }
    ledger_expected_ += inputs;
    result_.accepted_txs += accepted;
    pending_.clear();
  }

  const IngestParams& params_;
  uint64_t seed_;
  SelectorProbe* probe_;
  NodeLayers* layers_;  ///< null in untraced rounds
  Report* report_;

  std::unique_ptr<node::Node> node_;
  std::vector<std::unique_ptr<node::Wallet>> wallets_;
  std::vector<std::vector<TokenId>> owned_;
  std::vector<TokenState> state_;
  std::vector<Pending> pending_;
  std::map<size_t, std::shared_ptr<const node::Node::BatchAnalysisSnapshot>>
      last_snapshot_;
  size_t ledger_expected_ = 0;
  WorkDigest digest_;
  RoundResult result_;
};

}  // namespace

int RunIngest(const RunOptions& options, Report* report) {
  const IngestParams params = ParamsFor(options.small);
  const core::ResilientSelector selector;
  SelectorProbe probe(&selector, options.seed, options.trace);
  NodeLayers layers;

  std::vector<RoundResult> rounds;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::vector<double> setups;
  // Per spend: best untraced build time over the rounds (NaN: failed).
  std::vector<double> best_ms(params.spends, std::nan(""));
  Samples submit_ms;
  for (size_t k = 0; k < params.extra_setups && !options.trace; ++k) {
    IngestRound spare(params, options.seed, &probe, nullptr, report);
    setups.push_back(spare.TimeSetup());
  }
  // While tracing, a traced round is followed by an untraced one, so the
  // overhead is measured on identical work in the same process.
  const size_t total_rounds = options.trace ? 2 : params.rounds;
  for (size_t k = 0; k < total_rounds; ++k) {
    bool traced = options.trace && k % 2 == 0;
    probe.set_trace(traced);
    IngestRound round(params, options.seed, &probe, traced ? &layers : nullptr,
                      report);
    RoundResult result = round.Run();
    (traced ? traced_s : untraced_s).push_back(result.measured_s);
    if (!traced) {
      for (size_t op = 0; op < params.spends; ++op) {
        best_ms[op] = std::fmin(best_ms[op], result.spend_ms[op]);
      }
      submit_ms.Append(result.submit_ms);
      setups.push_back(result.setup_s);
    }
    if (!rounds.empty() && result.digest != rounds.front().digest) {
      report->Violation("round " + std::to_string(k) +
                        " did different work than round 0");
    }
    rounds.push_back(std::move(result));
  }

  const RoundResult& first = rounds.front();
  report->Note("work digest " + first.digest);
  report->Note(StrFormat(
      "counts attempted=%llu accepted=%llu failed=%llu rings=%llu "
      "ring_members=%llu relaxed=%llu multi_input=%llu rounds=%zu",
      static_cast<unsigned long long>(first.attempted),
      static_cast<unsigned long long>(first.accepted_txs),
      static_cast<unsigned long long>(first.failed()),
      static_cast<unsigned long long>(first.rings),
      static_cast<unsigned long long>(first.ring_members),
      static_cast<unsigned long long>(first.relaxed),
      static_cast<unsigned long long>(first.multi_input_txs), rounds.size()));
  for (const auto& [what, count] : first.failures) {
    report->Note(StrFormat("%llu x %s", static_cast<unsigned long long>(count),
                           what.c_str()));
  }
  report->set_attempted(first.attempted);
  report->set_failed(first.failed());

  double rings = static_cast<double>(std::max<uint64_t>(first.rings, 1));
  if (!options.trace) {
    std::vector<double> rates;
    for (const RoundResult& r : rounds) {
      rates.push_back(static_cast<double>(r.accepted_txs) / r.measured_s);
    }
    Samples spend_ms;
    for (double ms : best_ms) {
      if (!std::isnan(ms)) spend_ms.Add(ms);
    }
    report->Metric("setup_s", MedianOf(setups), "s");
    report->Metric("ops_per_s", MedianOf(rates), "1/s");
    report->Metric("op_p50_ms", spend_ms.Median(), "ms");
    if (!options.small) {
      report->Tail("op_p99_ms", spend_ms, 99.0, "ms");
    } else {
      report->Metric("op_p99_ms", spend_ms.Percentile(99.0), "ms");
    }
    report->Metric("ring_size_mean",
                   static_cast<double>(first.ring_members) / rings, "members");
    report->Metric("strict_frac",
                   1.0 - static_cast<double>(first.relaxed) / rings, "ratio");
    report->Metric("ok_frac",
                   1.0 - static_cast<double>(first.failed()) /
                             static_cast<double>(first.attempted),
                   "ratio");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return 0;
  }

  probe.layers().Emit(report);
  report->Metric("crypto.sign_us.p50", layers.sign_us.Median(), "us");
  report->Metric("crypto.verify_us.p50", layers.verify_us.Median(), "us");
  report->Metric("node.submit_us.p50", submit_ms.Median() * 1e3, "us");
  report->Metric("node.submit_us.first_q", layers.submit_first_q_us.Median(), "us");
  report->Metric("node.submit_us.last_q", layers.submit_last_q_us.Median(), "us");
  report->Metric("node.mine_us.p50", layers.mine_us.Median(), "us");
  report->Metric("node.mine_self_us.p50", layers.mine_self_us.Median(), "us");
  report->Metric("node.snapshot_us.fill.p50", layers.snapshot_fill_us.Median(), "us");
  report->Metric("node.snapshot_us.fill.count",
                 static_cast<double>(layers.snapshot_fill_us.count()), "count");
  report->Metric("node.snapshot_us.hit.p50", layers.snapshot_hit_us.Median(), "us");
  report->Metric("node.snapshot_us.hit.count",
                 static_cast<double>(layers.snapshot_hit_us.count()), "count");
  report->Metric("node.rejected_at_submit",
                 static_cast<double>(first.rejected_at_submit), "count");
  report->Metric("node.rejected_at_mine",
                 static_cast<double>(first.rejected_at_mine), "count");
  report->Metric("node.multi_input_txs",
                 static_cast<double>(first.multi_input_txs), "count");
  report->Metric("chain.ledger_rs", static_cast<double>(first.ledger_rs), "count");
  report->Metric("chain.tokens", static_cast<double>(first.tokens), "count");
  report->Metric("chain.batches", static_cast<double>(first.batches), "count");
  report->Metric("mem.rss_setup_mb", layers.rss_setup_mb, "MB");
  report->Metric("mem.rss_growth_mb", layers.rss_growth_mb, "MB");
  report->Metric("mem.bytes_per_token", layers.bytes_per_token, "B");
  report->Metric("trace.overhead_frac",
                 MedianOf(traced_s) / MedianOf(untraced_s) - 1.0, "ratio");
  return 0;
}

}  // namespace perfbench
