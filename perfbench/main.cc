// tm_perfbench — the repository's end-to-end benchmark program.
//
//   tm_perfbench --workload ingest|select_wide|serve --seed N
//                --seconds S --trace 0|1 [--small 1] [--socket-dir DIR]
//
// With --trace 0 it prints every end-to-end metric; with --trace 1 it
// runs the same work with per-layer timing around the calls into each
// layer and prints every per-layer metric. The last line of stdout is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Any
// violated output check sets "correct": false and the exit code to 1.
// perfbench/README.md maps every metric to its layer and workload.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "harness.h"

namespace perfbench {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (perfbench/test_perfbench.py checks).
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},       {"op_p99_ms", "ms"},
    {"ring_size_mean", "members"}, {"strict_frac", "ratio"},
    {"ok_frac", "ratio"},      {"peak_rss_mb", "MB"},
};

constexpr MetricName kPerLayer[] = {
    {"core.select_us.p50", "us"},
    {"core.select_us.multi.p50", "us"},
    {"core.module_build_us.p50", "us"},
    {"core.stage.TM_B.us", "us"},
    {"core.stage.TM_B.ok", "count"},
    {"core.stage.TM_B.failed", "count"},
    {"core.stage.TM_P.us", "us"},
    {"core.stage.TM_P.ok", "count"},
    {"core.stage.TM_P.failed", "count"},
    {"core.stage.TM_S.us", "us"},
    {"core.stage.TM_S.ok", "count"},
    {"core.stage.TM_S.failed", "count"},
    {"core.iterations.p50", "count"},
    {"core.relaxation_steps", "count"},
    {"analysis.diversity_check_us.p50", "us"},
    {"analysis.related_set_us.p50", "us"},
    {"analysis.chain_append_ms", "ms"},
    {"analysis.view_us", "us"},
    {"data.generate_ms", "ms"},
    {"crypto.sign_us.p50", "us"},
    {"crypto.verify_us.p50", "us"},
    {"node.submit_us.p50", "us"},
    {"node.submit_us.first_q", "us"},
    {"node.submit_us.last_q", "us"},
    {"node.mine_us.p50", "us"},
    {"node.mine_self_us.p50", "us"},
    {"node.snapshot_us.fill.p50", "us"},
    {"node.snapshot_us.fill.count", "count"},
    {"node.snapshot_us.hit.p50", "us"},
    {"node.snapshot_us.hit.count", "count"},
    {"node.rejected_at_submit", "count"},
    {"node.rejected_at_mine", "count"},
    {"node.multi_input_txs", "count"},
    {"chain.ledger_rs", "count"},
    {"chain.tokens", "count"},
    {"chain.batches", "count"},
    {"rpc.roundtrip_us.p50", "us"},
    {"rpc.roundtrip_us.p99", "us"},
    {"rpc.service_us.p50", "us"},
    {"rpc.service_us.p99", "us"},
    {"rpc.queue_wait_us.p50", "us"},
    {"rpc.queue_wait_us.p99", "us"},
    {"rpc.transport_us.p50", "us"},
    {"rpc.codec_us.p50", "us"},
    {"rpc.ok", "count"},
    {"rpc.degraded", "count"},
    {"rpc.shed", "count"},
    {"rpc.timeouts", "count"},
    {"mem.rss_setup_mb", "MB"},
    {"mem.rss_growth_mb", "MB"},
    {"mem.bytes_per_token", "B"},
    {"trace.overhead_frac", "ratio"},
};

void Usage() {
  std::fprintf(stderr,
               "usage: tm_perfbench --workload ingest|select_wide|serve "
               "--seed N --seconds S --trace 0|1 [--small 1] "
               "[--socket-dir DIR]\n");
}

bool ParseArgs(int argc, char** argv, RunOptions* options) {
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return false;
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options->trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--small") {
      options->small = std::strcmp(value, "0") != 0;
    } else if (flag == "--socket-dir") {
      options->socket_dir = value;
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0.0;
}

/// Every reported name must be one the benchmark declares, and every
/// declared name of the run's kind must be reported. A per-layer metric
/// of a layer the workload does not exercise reads 0.
template <size_t N>
void Reconcile(const MetricName (&declared)[N], bool fill_missing,
               Report* report) {
  for (const std::string& name : report->Names()) {
    bool known = false;
    for (const MetricName& m : declared) known = known || name == m.name;
    if (!known) report->Violation("undeclared metric " + name);
  }
  std::string skipped;
  for (const MetricName& m : declared) {
    if (report->Has(m.name)) continue;
    if (!fill_missing) {
      report->Violation(std::string("metric not reported: ") + m.name);
      continue;
    }
    report->Metric(m.name, 0.0, m.unit);
    skipped += std::string(skipped.empty() ? "" : " ") + m.name;
  }
  if (!skipped.empty()) {
    report->Note("layers not exercised by this workload (reported as 0): " +
                 skipped);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  Report report;
  int code = 0;
  if (options.workload == "ingest") {
    code = RunIngest(options, &report);
  } else if (options.workload == "select_wide") {
    code = RunSelectWide(options, &report);
  } else if (options.workload == "serve") {
    code = RunServe(options, &report);
  } else {
    Usage();
    return 2;
  }
  if (code != 0) return code;
  if (options.trace) {
    Reconcile(kPerLayer, /*fill_missing=*/true, &report);
  } else {
    Reconcile(kEndToEnd, /*fill_missing=*/false, &report);
  }
  return report.Print();
}
