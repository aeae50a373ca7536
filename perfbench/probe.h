// The selector probe: one timing wrapper around core::ResilientSelector,
// used unchanged by every workload, so `core.*` per-layer figures mean the
// same thing on ingest, select_wide and serve.
//
// It is a core::MixinSelector, so node::Wallet can spend through it. Each
// call draws its rng from (seed, operation, call within the operation)
// rather than from the caller's stream, and keeps the DegradationReport
// of every selection of the current operation for the output checks.
// With tracing on it also times, outside the selection itself, a
// standalone ModuleUniverse::Build on the same instance and the
// related-set walk and diversity check of the returned ring.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/resilient.h"
#include "core/selector.h"
#include "harness.h"

namespace perfbench {

/// One selection of the current operation.
struct SelectionRecord {
  tokenmagic::common::Status status;
  /// Valid when status is ok.
  tokenmagic::core::DegradationReport report;
  std::vector<TokenId> members;
};

/// Per-layer figures the probe gathers while tracing.
struct SelectorLayers {
  Samples select_us;          ///< selections over a shared context
  Samples select_multi_us;    ///< sibling-ring selections (no context)
  Samples module_build_us;    ///< standalone ModuleUniverse::Build
  Samples related_set_us;     ///< ComputeRelatedSet on the returned ring
  Samples diversity_check_us; ///< SatisfiesRecursiveDiversity on the ring
  Samples iterations;         ///< DegradationReport::total_iterations
  uint64_t relaxation_steps = 0;
  struct Stage {
    Samples us;
    uint64_t ok = 0;
    uint64_t failed = 0;
  };
  std::map<std::string, Stage> stages;

  /// Adds every figure under `core.` / `analysis.` names.
  void Emit(Report* report) const;
};

class SelectorProbe final : public tokenmagic::core::MixinSelector {
 public:
  SelectorProbe(const tokenmagic::core::ResilientSelector* inner,
                uint64_t seed, bool trace);

  /// Starts operation `op`: clears the per-operation records.
  void BeginOp(uint64_t op);

  /// Runs the resilient ladder with the operation's rng (the caller's
  /// rng is ignored) and records the outcome.
  [[nodiscard]] tokenmagic::common::Result<tokenmagic::core::SelectionResult>
  Select(const tokenmagic::core::SelectionInput& input,
         tokenmagic::common::Rng* rng) const override;

  std::string_view name() const override { return "TM_X"; }

  const std::vector<SelectionRecord>& records() const { return records_; }
  /// Wall time of the last Select's SelectWithReport, in nanoseconds.
  int64_t last_select_nanos() const { return last_select_nanos_; }
  /// Wall time spent inside Select calls of the current operation,
  /// including the traced extras.
  int64_t op_inside_nanos() const { return op_inside_nanos_; }
  const SelectorLayers& layers() const { return layers_; }
  void set_trace(bool trace) { trace_ = trace; }

 private:
  const tokenmagic::core::ResilientSelector* inner_;
  uint64_t seed_;
  bool trace_;
  uint64_t op_ = 0;
  // Select() is const in the MixinSelector interface; the probe is used
  // by one thread at a time and these are its measurement state.
  mutable std::vector<SelectionRecord> records_;
  mutable int64_t last_select_nanos_ = 0;
  mutable int64_t op_inside_nanos_ = 0;
  mutable SelectorLayers layers_;
};

}  // namespace perfbench
