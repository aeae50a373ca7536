#include "probe.h"

#include "analysis/diversity.h"
#include "analysis/related_set.h"
#include "core/modules.h"

namespace perfbench {

namespace core = tokenmagic::core;
namespace analysis = tokenmagic::analysis;
using tokenmagic::common::Result;
using tokenmagic::common::Rng;
using tokenmagic::common::StatusCode;

SelectorProbe::SelectorProbe(const core::ResilientSelector* inner,
                             uint64_t seed, bool trace)
    : inner_(inner), seed_(seed), trace_(trace) {}

void SelectorProbe::BeginOp(uint64_t op) {
  op_ = op;
  records_.clear();
  op_inside_nanos_ = 0;
}

Result<core::SelectionResult> SelectorProbe::Select(
    const core::SelectionInput& input, Rng* /*rng*/) const {
  int64_t entered = NowNanos();
  // Up to 16 selections per operation get distinct streams.
  Rng rng = OpRng(seed_, op_ * 16 + records_.size());
  int64_t start = NowNanos();
  auto selected = inner_->SelectWithReport(input, &rng);
  last_select_nanos_ = NowNanos() - start;

  SelectionRecord record;
  if (selected.ok()) {
    record.report = selected->report;
    record.members = selected->result.members;
  } else {
    record.status = selected.status();
  }

  if (trace_) {
    // A sibling ring of a multi-input spend is selected against a history
    // that carries the transaction's earlier rings, so it has no context.
    double select_us = static_cast<double>(last_select_nanos_) / 1e3;
    (input.context == nullptr ? layers_.select_multi_us : layers_.select_us)
        .Add(select_us);
    if (selected.ok()) {
      const core::DegradationReport& report = selected->report;
      for (const core::StageAttempt& attempt : report.attempts) {
        SelectorLayers::Stage& stage = layers_.stages[attempt.stage];
        stage.us.Add(attempt.seconds_spent * 1e6);
        if (attempt.outcome == StatusCode::kOk) {
          ++stage.ok;
        } else {
          ++stage.failed;
        }
        layers_.relaxation_steps +=
            static_cast<uint64_t>(attempt.relaxation_steps);
      }
      layers_.iterations.Add(static_cast<double>(report.total_iterations));

      // The workloads check the ring; only the time of these calls is
      // kept here.
      const std::vector<TokenId>& ring = selected->result.members;
      int64_t t0 = NowNanos();
      bool diverse = analysis::SatisfiesRecursiveDiversity(
          ring, *input.index, report.satisfied_requirement);
      int64_t t1 = NowNanos();
      size_t related =
          input.context != nullptr
              ? analysis::ComputeRelatedSet(ring, *input.context).related.size()
              : analysis::ComputeRelatedSet(ring, input.history).related.size();
      int64_t t2 = NowNanos();
      layers_.diversity_check_us.Add(static_cast<double>(t1 - t0) / 1e3);
      layers_.related_set_us.Add(static_cast<double>(t2 - t1) / 1e3);
      (void)diverse;
      (void)related;
    }
    if (input.context != nullptr) {
      int64_t t0 = NowNanos();
      auto modules = core::ModuleUniverse::Build(input.universe, input.history,
                                                 *input.context);
      layers_.module_build_us.Add(static_cast<double>(NowNanos() - t0) / 1e3);
      (void)modules;
    }
  }
  records_.push_back(std::move(record));
  op_inside_nanos_ += NowNanos() - entered;

  if (!selected.ok()) return selected.status();
  return std::move(selected->result);
}

void SelectorLayers::Emit(Report* report) const {
  report->Metric("core.select_us.p50", select_us.Median(), "us");
  report->Metric("core.select_us.multi.p50", select_multi_us.Median(), "us");
  report->Metric("core.module_build_us.p50", module_build_us.Median(), "us");
  for (const char* name : {"TM_B", "TM_P", "TM_S"}) {
    auto it = stages.find(name);
    Stage empty;
    const Stage& stage = it == stages.end() ? empty : it->second;
    std::string prefix = std::string("core.stage.") + name;
    report->Metric(prefix + ".us", stage.us.Median(), "us");
    report->Metric(prefix + ".ok", static_cast<double>(stage.ok), "count");
    report->Metric(prefix + ".failed", static_cast<double>(stage.failed),
                   "count");
  }
  report->Metric("core.iterations.p50", iterations.Median(), "count");
  report->Metric("core.relaxation_steps", static_cast<double>(relaxation_steps),
                 "count");
  report->Metric("analysis.diversity_check_us.p50", diversity_check_us.Median(),
                 "us");
  report->Metric("analysis.related_set_us.p50", related_set_us.Median(), "us");
}

}  // namespace perfbench
