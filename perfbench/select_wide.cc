// select_wide: the paper's synthetic generator (Section 7.1, σ = 12)
// scaled to ≈1000 super RSs of 5–15 tokens plus 64 fresh tokens, about
// 10k tokens in one mixin universe, under Table 3's requirement
// (0.6, 30). Each instance's context is sealed once through EpochChain
// and every selection is read-only, so core selection is nearly all of
// the work: no crypto, no writes.
//
// One pass selects a ring for each seeded unspent target of every
// instance (about 13 s on a 4-vCPU Xeon VM). An untraced run makes
// exactly `passes` passes, whatever --seconds says, so faster code does
// not get a best-of over more samples; every pass must reproduce the
// first pass's rings exactly.
#include <algorithm>
#include <memory>

#include "analysis/context.h"
#include "analysis/epoch_chain.h"
#include "common/strings.h"
#include "core/resilient.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "harness.h"
#include "probe.h"

namespace perfbench {
namespace {

namespace analysis = tokenmagic::analysis;
namespace common = tokenmagic::common;
namespace core = tokenmagic::core;
namespace data = tokenmagic::data;
using common::StrFormat;

struct SelectWideParams {
  size_t super_rs = 1000;
  /// Independent synthetic instances per run, each from its own seed
  /// derived from --seed: selection cost depends on the instance, so one
  /// instance per run would make every figure swing with the seed.
  size_t instances = 8;
  /// Distinct targets per instance. A pass is instances × targets
  /// selections: a 1% tail of 10.
  size_t targets = 128;
  /// Set-ups per run; the last one is kept and setup_s is their median.
  size_t setups = 5;
  /// Untraced passes per run, exactly. Each selection's time is its best
  /// over the passes, so a host stall during one pass does not land in
  /// the tail. A traced run makes one traced and one untraced pass.
  size_t passes = 2;
};

SelectWideParams ParamsFor(bool small) {
  SelectWideParams params;
  if (small) {
    params.super_rs = 120;
    params.instances = 2;
    params.targets = 24;
    params.setups = 1;
    params.passes = 1;
  }
  return params;
}

/// One sealed instance: dataset, its chained context, its targets.
struct Instance {
  data::Dataset dataset;
  std::unique_ptr<analysis::EpochChain> chain;
  analysis::AnalysisContext context;
  std::vector<TokenId> targets;
  double generate_ms = 0.0;
  double append_ms = 0.0;
  double view_us = 0.0;
};

std::unique_ptr<Instance> SetUp(const SelectWideParams& params, uint64_t seed,
                                size_t which) {
  auto instance = std::make_unique<Instance>();
  data::SyntheticParams synthetic;
  synthetic.num_super_rs = params.super_rs;
  synthetic.super_size_min = 5;
  synthetic.super_size_max = 15;
  synthetic.num_fresh = 64;
  synthetic.sigma = 12.0;
  synthetic.seed = OpRng(seed, which).Next();
  int64_t t0 = NowNanos();
  instance->dataset = data::MakeSyntheticDataset(synthetic);
  int64_t t1 = NowNanos();
  instance->chain = std::make_unique<analysis::EpochChain>();
  instance->chain->Append(instance->dataset.history, &instance->dataset.index,
                          instance->dataset.universe);
  int64_t t2 = NowNanos();
  instance->context = instance->chain->View();
  int64_t t3 = NowNanos();
  instance->generate_ms = static_cast<double>(t1 - t0) / 1e6;
  instance->append_ms = static_cast<double>(t2 - t1) / 1e6;
  instance->view_us = static_cast<double>(t3 - t2) / 1e3;
  instance->targets = instance->dataset.UnspentTokens();
  OpRng(~seed, which).Shuffle(&instance->targets);
  instance->targets.resize(std::min(instance->targets.size(), params.targets));
  return instance;
}

}  // namespace

int RunSelectWide(const RunOptions& options, Report* report) {
  const SelectWideParams params = ParamsFor(options.small);
  std::vector<double> setups;
  std::vector<std::unique_ptr<Instance>> instances;
  for (size_t k = 0; k < params.setups; ++k) {
    instances.clear();
    int64_t t0 = NowNanos();
    for (size_t i = 0; i < params.instances; ++i) {
      instances.push_back(SetUp(params, options.seed, i));
    }
    setups.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }

  const core::ResilientSelector selector;
  SelectorProbe probe(&selector, options.seed, options.trace);
  const DiversityRequirement requirement{0.6, 30};

  // Per operation: best untraced time over the passes so far.
  std::vector<double> best_ms;
  std::vector<double> traced_s;
  std::vector<double> untraced_s;
  std::string first_digest;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t relaxed = 0;
  uint64_t ring_members = 0;
  uint64_t rings = 0;
  const size_t total_passes = options.trace ? 2 : params.passes;
  for (size_t pass = 0; pass < total_passes; ++pass) {
    // While tracing, a traced pass is followed by an untraced one, so the
    // overhead is measured on identical work.
    bool traced = options.trace && pass % 2 == 0;
    probe.set_trace(traced);
    WorkDigest digest;
    int64_t pass_start = NowNanos();
    uint64_t op = 0;
    for (const std::unique_ptr<Instance>& instance : instances) {
      core::SelectionInput input;
      input.universe = instance->dataset.universe;
      input.history = instance->chain->History();
      input.context = &instance->context;
      input.index = &instance->dataset.index;
      input.requirement = requirement;
      for (TokenId target : instance->targets) {
        input.target = target;
        const uint64_t this_op = op++;
        probe.BeginOp(this_op);
        digest.Add(this_op);
        auto selected = probe.Select(input, nullptr);
        if (!traced) {
          double ms = static_cast<double>(probe.last_select_nanos()) / 1e6;
          if (best_ms.size() <= this_op) best_ms.resize(this_op + 1, ms);
          best_ms[this_op] = std::min(best_ms[this_op], ms);
        }
        if (pass == 0) ++attempted;
        if (!selected.ok()) {
          digest.Add(static_cast<uint64_t>(selected.status().code()));
          if (pass == 0) {
            ++failed;
            if (!IsTypedFailure(selected.status())) {
              report->Violation("untyped selection failure: " +
                                selected.status().ToString());
            }
          }
          continue;
        }
        digest.AddRing(selected->members);
        if (pass == 0) {
          const DiversityRequirement& satisfied =
              probe.records().front().report.satisfied_requirement;
          std::string bad = CheckRing(target, selected->members, satisfied,
                                      instance->dataset.index);
          if (!bad.empty()) report->Violation(bad);
          ++rings;
          ring_members += selected->members.size();
          if (Relaxed(satisfied, requirement)) ++relaxed;
        }
      }
    }
    (traced ? traced_s : untraced_s)
        .push_back(static_cast<double>(NowNanos() - pass_start) / 1e9);
    std::string hex = digest.Hex();
    if (pass == 0) {
      first_digest = hex;
    } else if (hex != first_digest) {
      report->Violation(StrFormat("pass %zu selected different rings", pass));
    }
  }

  size_t tokens = 0;
  size_t history_rs = 0;
  std::vector<double> generate_ms, append_ms, view_us;
  for (const std::unique_ptr<Instance>& instance : instances) {
    tokens += instance->dataset.universe.size();
    history_rs += instance->dataset.history.size();
    generate_ms.push_back(instance->generate_ms);
    append_ms.push_back(instance->append_ms);
    view_us.push_back(instance->view_us);
  }
  report->Note("work digest " + first_digest);
  report->Note(StrFormat(
      "counts attempted=%llu failed=%llu rings=%llu ring_members=%llu "
      "relaxed=%llu tokens=%zu history_rs=%zu",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed),
      static_cast<unsigned long long>(rings),
      static_cast<unsigned long long>(ring_members),
      static_cast<unsigned long long>(relaxed), tokens, history_rs));
  report->set_attempted(attempted);
  report->set_failed(failed);

  double ring_count = static_cast<double>(std::max<uint64_t>(rings, 1));
  if (!options.trace) {
    report->Metric("setup_s", MedianOf(setups), "s");
    report->Metric("ops_per_s",
                   static_cast<double>(attempted) / MedianOf(untraced_s),
                   "1/s");
    Samples select_ms;
    for (double ms : best_ms) select_ms.Add(ms);
    report->Metric("op_p50_ms", select_ms.Median(), "ms");
    if (!options.small) {
      report->Tail("op_p99_ms", select_ms, 99.0, "ms");
    } else {
      report->Metric("op_p99_ms", select_ms.Percentile(99.0), "ms");
    }
    report->Metric("ring_size_mean",
                   static_cast<double>(ring_members) / ring_count, "members");
    report->Metric("strict_frac",
                   1.0 - static_cast<double>(relaxed) / ring_count, "ratio");
    report->Metric("ok_frac",
                   1.0 - static_cast<double>(failed) /
                             static_cast<double>(attempted),
                   "ratio");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return 0;
  }

  probe.layers().Emit(report);
  // Sizes summed over the instances; set-up steps as the median instance.
  report->Metric("chain.ledger_rs", static_cast<double>(history_rs), "count");
  report->Metric("chain.tokens", static_cast<double>(tokens), "count");
  report->Metric("chain.batches", static_cast<double>(instances.size()),
                 "count");
  report->Metric("analysis.chain_append_ms", MedianOf(append_ms), "ms");
  report->Metric("analysis.view_us", MedianOf(view_us), "us");
  report->Metric("data.generate_ms", MedianOf(generate_ms), "ms");
  report->Metric("trace.overhead_frac",
                 MedianOf(traced_s) / MedianOf(untraced_s) - 1.0, "ratio");
  return 0;
}

}  // namespace perfbench
