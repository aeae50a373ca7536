// Context throughput: legacy per-call interning vs the shared
// AnalysisContext on the three hot read paths — related-set walks, the
// chain-reaction cascade, and one full batch-selection round — at 1k and
// 10k history RSs. The legacy side of the first two phases is the frozen
// span-based code in tests/reference/; the legacy selection round interns
// a one-shot context per target. Emits machine-readable BENCH_context.json (override
// the path with TM_BENCH_JSON). `--smoke` (or TM_SMOKE=1) keeps both
// scales but shrinks the query counts for a quick local look; its
// end-to-end speedups are not comparable to the committed full-run
// baseline, which CI gates a full run against.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/chain_reaction.h"
#include "analysis/context.h"
#include "analysis/related_set.h"
#include "common/rng.h"
#include "core/progressive.h"
#include "core/selector.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "reference/span_analysis.h"

namespace tokenmagic::bench {
namespace {

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

struct PhaseResult {
  const char* name;
  size_t queries;
  double legacy_ms;
  double context_ms;

  double Speedup() const {
    return context_ms > 0.0 ? legacy_ms / context_ms : 0.0;
  }
};

struct ScaleResult {
  size_t num_rs;
  size_t num_tokens;
  double context_build_ms;
  std::vector<PhaseResult> phases;

  double TotalLegacyMs() const {
    double total = 0.0;
    for (const PhaseResult& p : phases) total += p.legacy_ms;
    return total;
  }
  double TotalContextMs() const {
    // The one-time snapshot build is charged to the context side: the
    // reported speedup is end-to-end, not per-query best case.
    double total = context_build_ms;
    for (const PhaseResult& p : phases) total += p.context_ms;
    return total;
  }
  double Speedup() const {
    double ctx = TotalContextMs();
    return ctx > 0.0 ? TotalLegacyMs() / ctx : 0.0;
  }
};

struct BenchConfig {
  bool smoke = false;
  size_t related_queries = 64;
  size_t cascade_reps = 3;
  size_t selection_targets = 16;
};

ScaleResult RunScale(size_t num_rs, const BenchConfig& config) {
  data::SyntheticParams params;
  params.num_super_rs = num_rs;
  params.super_size_min = 5;
  params.super_size_max = 15;
  params.num_fresh = 64;
  params.sigma = 12.0;
  params.seed = 42;
  data::Dataset dataset = data::MakeSyntheticDataset(params);

  ScaleResult result;
  result.num_rs = dataset.history.size();
  result.num_tokens = dataset.universe.size();

  auto start = std::chrono::steady_clock::now();
  analysis::AnalysisContext context = analysis::AnalysisContext::Build(
      dataset.history, &dataset.index, dataset.universe);
  result.context_build_ms = MillisSince(start);

  // Phase 1: related-set walks seeded from history RS member sets, the
  // shape TokenMagic issues once per candidate during selection.
  {
    PhaseResult phase{"related_set", config.related_queries, 0.0, 0.0};
    size_t checksum_legacy = 0;
    size_t checksum_context = 0;
    start = std::chrono::steady_clock::now();
    for (size_t q = 0; q < phase.queries; ++q) {
      const chain::RsView& seed =
          dataset.history[(q * 97) % dataset.history.size()];
      checksum_legacy +=
          reference::ComputeRelatedSet(seed.members, dataset.history)
              .related.size();
    }
    phase.legacy_ms = MillisSince(start);
    start = std::chrono::steady_clock::now();
    for (size_t q = 0; q < phase.queries; ++q) {
      const chain::RsView& seed =
          dataset.history[(q * 97) % dataset.history.size()];
      checksum_context +=
          analysis::ComputeRelatedSet(seed.members, context).related.size();
    }
    phase.context_ms = MillisSince(start);
    if (checksum_legacy != checksum_context) {
      std::fprintf(stderr, "related-set divergence at %zu RS\n", num_rs);
      std::exit(1);
    }
    result.phases.push_back(phase);
  }

  // Phase 2: full-history chain-reaction cascade.
  {
    PhaseResult phase{"cascade", config.cascade_reps, 0.0, 0.0};
    size_t spent_legacy = 0;
    size_t spent_context = 0;
    start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < phase.queries; ++r) {
      spent_legacy =
          reference::Cascade(dataset.history).spent_tokens.size();
    }
    phase.legacy_ms = MillisSince(start);
    start = std::chrono::steady_clock::now();
    for (size_t r = 0; r < phase.queries; ++r) {
      spent_context = analysis::ChainReactionAnalyzer::Cascade(context)
                          .spent_tokens.size();
    }
    phase.context_ms = MillisSince(start);
    if (spent_legacy != spent_context) {
      std::fprintf(stderr, "cascade divergence at %zu RS\n", num_rs);
      std::exit(1);
    }
    result.phases.push_back(phase);
  }

  // Phase 3: one batch-selection round — TM_P over a slate of fresh
  // targets, first interning a one-shot context per target and then
  // sharing one context across every target, as the node does per block.
  {
    PhaseResult phase{"selection_round", config.selection_targets, 0.0, 0.0};
    const core::ProgressiveSelector selector;
    auto unspent = dataset.UnspentTokens();
    core::SelectionInput input;
    input.universe = dataset.universe;
    input.history = dataset.history;
    input.requirement = {0.6, 30};
    input.index = &dataset.index;

    size_t solved_legacy = 0;
    size_t solved_context = 0;
    common::Rng rng(0xc0de);
    start = std::chrono::steady_clock::now();
    for (size_t q = 0; q < phase.queries; ++q) {
      core::SelectionInput interned = input;
      interned.target = unspent[(q * 131) % unspent.size()];
      core::InternInstance(&interned);
      if (selector.Select(interned, &rng).ok()) ++solved_legacy;
    }
    phase.legacy_ms = MillisSince(start);

    input.context = &context;
    rng = common::Rng(0xc0de);
    start = std::chrono::steady_clock::now();
    for (size_t q = 0; q < phase.queries; ++q) {
      input.target = unspent[(q * 131) % unspent.size()];
      if (selector.Select(input, &rng).ok()) ++solved_context;
    }
    phase.context_ms = MillisSince(start);
    if (solved_legacy != solved_context) {
      std::fprintf(stderr, "selection divergence at %zu RS\n", num_rs);
      std::exit(1);
    }
    result.phases.push_back(phase);
  }

  return result;
}

void WriteJson(const std::vector<ScaleResult>& scales, bool smoke,
               const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"bench\": \"context_throughput\",\n");
  std::fprintf(out, "  \"smoke\": %s,\n  \"scales\": [\n",
               smoke ? "true" : "false");
  for (size_t s = 0; s < scales.size(); ++s) {
    const ScaleResult& scale = scales[s];
    std::fprintf(out,
                 "    {\n      \"num_rs\": %zu,\n      \"num_tokens\": %zu,\n"
                 "      \"context_build_ms\": %.3f,\n      \"phases\": [\n",
                 scale.num_rs, scale.num_tokens, scale.context_build_ms);
    for (size_t p = 0; p < scale.phases.size(); ++p) {
      const PhaseResult& phase = scale.phases[p];
      std::fprintf(out,
                   "        {\"name\": \"%s\", \"queries\": %zu, "
                   "\"legacy_ms\": %.3f, \"context_ms\": %.3f, "
                   "\"speedup\": %.2f}%s\n",
                   phase.name, phase.queries, phase.legacy_ms,
                   phase.context_ms, phase.Speedup(),
                   p + 1 < scale.phases.size() ? "," : "");
    }
    std::fprintf(out,
                 "      ],\n      \"total_legacy_ms\": %.3f,\n"
                 "      \"total_context_ms\": %.3f,\n"
                 "      \"speedup\": %.2f\n    }%s\n",
                 scale.TotalLegacyMs(), scale.TotalContextMs(),
                 scale.Speedup(), s + 1 < scales.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

int Main(int argc, char** argv) {
  BenchConfig config;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) config.smoke = true;
  }
  const char* env_smoke = std::getenv("TM_SMOKE");
  if (env_smoke != nullptr && env_smoke[0] == '1') config.smoke = true;
  if (config.smoke) {
    config.related_queries = 8;
    config.cascade_reps = 1;
    config.selection_targets = 4;
  }

  std::vector<ScaleResult> scales;
  for (size_t num_rs : {size_t{1000}, size_t{10000}}) {
    std::printf("scale %zu RS...\n", num_rs);
    scales.push_back(RunScale(num_rs, config));
    const ScaleResult& scale = scales.back();
    std::printf("  %zu RS / %zu tokens: build %.2f ms, speedup %.2fx\n",
                scale.num_rs, scale.num_tokens, scale.context_build_ms,
                scale.Speedup());
    for (const PhaseResult& phase : scale.phases) {
      std::printf("    %-16s legacy %9.2f ms  context %9.2f ms  %.2fx\n",
                  phase.name, phase.legacy_ms, phase.context_ms,
                  phase.Speedup());
    }
  }

  const char* path = std::getenv("TM_BENCH_JSON");
  if (path == nullptr) path = "BENCH_context.json";
  WriteJson(scales, config.smoke, path);
  std::printf("wrote %s\n", path);
  return 0;
}

}  // namespace
}  // namespace tokenmagic::bench

int main(int argc, char** argv) {
  return tokenmagic::bench::Main(argc, argv);
}
