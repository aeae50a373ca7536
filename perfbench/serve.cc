// serve: an in-process rpc::Server over rpc::BuildTestbed (tm_load's
// defaults: 32 wallets, 4 tokens each in HT clusters of 2, 2 mined spend
// rounds, λ = 64), fault-free, with a request deadline far above the
// service time. A fixed number of rpc::Client connections each send
// their next Select only after the previous reply arrived (closed loop).
// This is the only workload that measures the rpc layer: frame decode,
// admission queue, selection over the node's shared snapshot, encode and
// write.
//
// The whole process (clients, readers, workers) runs on one CPU at a time.
// Spread over 4 vCPUs, every request waits for up to three cross-CPU
// wakeups, and on a shared VM their latency depends on the host: runs of
// the same code gave 5k to 19k requests/s and a p99 of 0.2 to 6 ms. On
// one CPU a wakeup is a local context switch, and the run measures the
// per-request CPU path — the cost the rpc layer itself controls. With one
// worker on one CPU the server's stats_mu_ is never contended, so lock
// contention inside the server does not show here.
//
// The host's speed for that CPU changes from second to second by up to
// half (on a 4-vCPU Xeon VM a pinned busy loop ran 21M to 30M iterations
// per second), and a run can stay in a slow state for many seconds. So
// the load moves to the next allowed CPU every second, and after a
// warm-up it runs for --seconds cut into one-second windows by
// completion time. Each figure is taken at the best decile of the
// windows: the 90th percentile of the window rates, and the 10th
// percentile of the windows' p50s and p99s.
// Like ingest's best-of-rounds, this reads the code's speed in the host's
// fast periods; slower code is slower in those periods too.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>

#include "common/histogram.h"
#include "common/strings.h"
#include "core/resilient.h"
#include "harness.h"
#include "node/node.h"
#include "probe.h"
#include "rpc/client.h"
#include "rpc/protocol.h"
#include "rpc/server.h"
#include "rpc/testbed.h"

namespace perfbench {
namespace {

namespace common = tokenmagic::common;
namespace core = tokenmagic::core;
namespace node = tokenmagic::node;
namespace rpc = tokenmagic::rpc;
using common::StrFormat;

struct ServeParams {
  size_t connections = 2;
  /// One worker: on one CPU a second worker only adds a scheduling mode
  /// (the two requests served interleaved or in turn), which made the p50
  /// swing by a third between runs.
  size_t workers = 1;
  double warmup_s = 2.0;
  /// Set-ups per run; the last one serves and setup_s is their median.
  size_t setups = 5;
  uint32_t deadline_millis = 2000;
  DiversityRequirement requirement{2.0, 2};
  /// Served targets replayed in-process through the selector probe.
  size_t replay = 2000;
};

enum Phase : int { kWarmup = 0, kMeasure = 1, kStop = 2 };

/// Round-trip times are kept as a common::Histogram of 0.1 µs buckets:
/// memory grows with the number of distinct buckets, not with the number
/// of requests, so the sample store does not move peak_rss_mb with
/// throughput.
void AddRoundTrip(int64_t nanos, common::Histogram* histogram) {
  histogram->Add(nanos / 100);
}

/// Interpolated percentile of a round-trip histogram, in µs; 0 when empty.
double PercentileUs(const common::Histogram& histogram, double p) {
  return histogram.count() == 0 ? 0.0
                                : histogram.PercentileInterpolated(p) / 10.0;
}

/// Samples in buckets above the bucket of the p-th percentile.
int64_t CountAbove(const common::Histogram& histogram, double p) {
  if (histogram.count() == 0) return 0;
  int64_t at = histogram.Percentile(p);
  int64_t above = 0;
  for (auto it = histogram.buckets().upper_bound(at);
       it != histogram.buckets().end(); ++it) {
    above += it->second;
  }
  return above;
}

/// One connection's tallies; written by its thread only, read after join.
struct ClientTally {
  /// Every Select sent and every verdict received, warm-up included: the
  /// client's side of the conservation check against the server's
  /// counters.
  uint64_t sent = 0;
  uint64_t received_ok = 0;
  uint64_t received_failures = 0;
  /// Measured phase only.
  uint64_t issued = 0;
  uint64_t ok = 0;
  uint64_t relaxed = 0;
  uint64_t ring_members = 0;
  uint64_t typed_failures = 0;
  uint64_t transport_failures = 0;
  /// Time spent in the client-side ring checks while measuring.
  int64_t check_nanos = 0;
  common::Histogram latency;
  Samples codec_us;
  /// Round-trip times by the measured second they completed in.
  std::vector<common::Histogram> per_window;
  std::vector<std::string> violations;
};

struct LoadShared {
  std::string socket_path;
  const ServeParams* params = nullptr;
  uint64_t seed = 0;
  const std::vector<TokenId>* targets = nullptr;
  const tokenmagic::chain::HtIndex* index = nullptr;
  std::atomic<int> phase{kWarmup};   // tm-atomic(standalone phase flag)
  std::atomic<int64_t> measure_start{0};
  std::atomic<bool> trace{false};
};

/// The target of request `i` on connection `conn`.
TokenId TargetOf(const LoadShared& shared, size_t conn, uint64_t i) {
  common::Rng rng = OpRng(shared.seed, (uint64_t{conn} << 40) | i);
  return (*shared.targets)[rng.NextBounded(shared.targets->size())];
}

void RunConnection(LoadShared* shared, size_t conn, ClientTally* out) {
  rpc::ClientOptions options;
  options.recv_timeout_millis = 10000;
  options.retry.max_attempts = 1;
  auto client = rpc::Client::Connect(shared->socket_path, options);
  if (!client.ok()) {
    out->violations.push_back("connect failed: " + client.status().ToString());
    return;
  }
  for (uint64_t i = 0;; ++i) {
    int phase = shared->phase.load();
    if (phase == kStop) break;
    TokenId target = TargetOf(*shared, conn, i);
    int64_t t0 = NowNanos();
    auto response = client->Select(target, shared->params->requirement,
                                   shared->params->deadline_millis);
    int64_t t1 = NowNanos();
    ++out->sent;
    if (response.ok()) {
      ++(response->status.ok() ? out->received_ok : out->received_failures);
    }
    if (phase != kMeasure) continue;
    ++out->issued;
    size_t window = static_cast<size_t>(
        (t1 - shared->measure_start.load()) / 1000000000);
    if (out->per_window.size() <= window) out->per_window.resize(window + 1);
    AddRoundTrip(t1 - t0, &out->per_window[window]);
    AddRoundTrip(t1 - t0, &out->latency);
    if (!response.ok()) {
      ++out->transport_failures;
      if (!IsTypedFailure(response.status())) {
        out->violations.push_back("untyped transport failure");
      }
      continue;
    }
    const rpc::Response& reply = *response;
    if (shared->trace.load()) {
      // Codec cost of this exchange, redone off the wire: encode and
      // decode of the request and of the reply.
      rpc::Request request;
      request.target = target;
      request.requirement = shared->params->requirement;
      request.deadline_millis = shared->params->deadline_millis;
      int64_t c0 = NowNanos();
      std::string req_bytes = rpc::EncodeRequest(request);
      rpc::Request req_back;
      common::Status a = rpc::DecodeRequest(req_bytes, &req_back);
      std::string resp_bytes = rpc::EncodeResponse(reply);
      rpc::Response resp_back;
      common::Status b = rpc::DecodeResponse(resp_bytes, &resp_back);
      out->codec_us.Add(static_cast<double>(NowNanos() - c0) / 1e3);
      if (!a.ok() || !b.ok() || resp_back.members != reply.members) {
        out->violations.push_back("codec round trip changed a message");
      }
    }
    if (!reply.status.ok()) {
      ++out->typed_failures;
      if (!IsTypedFailure(reply.status)) {
        out->violations.push_back("untyped verdict: " + reply.status.ToString());
      }
      continue;
    }
    ++out->ok;
    out->ring_members += reply.members.size();
    if (Relaxed(reply.satisfied, shared->params->requirement)) ++out->relaxed;
    // The check runs on the one CPU the server also uses; its time is
    // summed so the run can report the share it took.
    int64_t k0 = NowNanos();
    std::string bad = CheckRing(target, reply.members, reply.satisfied,
                                *shared->index);
    out->check_nanos += NowNanos() - k0;
    if (!bad.empty() && out->violations.size() < 20) {
      out->violations.push_back(bad);
    }
  }
}

/// The CPUs this process may run on, ascending.
std::vector<int> AllowedCpus() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  return cpus;
}

/// Confines every thread of the process to `cpu`. A thread created later
/// inherits its creator's affinity, so the whole process stays on `cpu`.
bool MoveProcessTo(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  bool moved = true;
  std::error_code error;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    pid_t tid = static_cast<pid_t>(
        std::strtol(task.path().filename().c_str(), nullptr, 10));
    moved = sched_setaffinity(tid, sizeof(one), &one) == 0 && moved;
  }
  return moved && !error;
}

}  // namespace

int RunServe(const RunOptions& options, Report* report) {
  ServeParams params;
  if (options.small) params.warmup_s = 0.2;
  // Before any thread exists: server and clients all inherit the pin.
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.empty() || !MoveProcessTo(cpus.front())) {
    std::fprintf(stderr, "serve: cannot pin the process to one CPU\n");
    return 2;
  }
  // The load moves to the next allowed CPU every second, so a CPU the
  // host slows down holds a share of the windows, not the whole run.
  size_t next_cpu = 1;
  auto run_until = [&](int64_t end_nanos) {
    for (int64_t now = NowNanos(); now < end_nanos; now = NowNanos()) {
      int64_t step = std::min<int64_t>(end_nanos - now, 1000000000);
      std::this_thread::sleep_for(std::chrono::nanoseconds(step));
      if (NowNanos() >= end_nanos) break;
      if (!MoveProcessTo(cpus[next_cpu++ % cpus.size()])) {
        report->Violation("cannot move the load to the next CPU");
      }
    }
  };

  rpc::TestbedConfig testbed_config;
  testbed_config.num_wallets = 32;
  testbed_config.tokens_per_wallet = 4;
  testbed_config.cluster_size = 2;
  testbed_config.spend_rounds = 2;
  testbed_config.seed = options.seed;

  rpc::ServerConfig server_config;
  server_config.socket_path =
      StrFormat("%s/tm_perfbench_%d.sock", options.socket_dir.c_str(),
                static_cast<int>(getpid()));
  server_config.workers = params.workers;
  server_config.queue_capacity = 64;
  server_config.max_deadline_millis = params.deadline_millis;
  server_config.seed = options.seed;

  std::vector<double> setups;
  std::unique_ptr<rpc::Testbed> testbed;
  std::unique_ptr<rpc::Server> server;
  for (size_t k = 0; k < params.setups; ++k) {
    if (server != nullptr) server->Stop();
    server.reset();
    testbed.reset();
    int64_t t0 = NowNanos();
    testbed = std::make_unique<rpc::Testbed>(rpc::BuildTestbed(testbed_config));
    server = std::make_unique<rpc::Server>(testbed->node.get(), server_config);
    common::Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "serve: server did not start: %s\n",
                   started.ToString().c_str());
      return 2;
    }
    setups.push_back(static_cast<double>(NowNanos() - t0) / 1e9);
  }
  const node::Node& the_node = *testbed->node;

  LoadShared shared;
  shared.socket_path = server_config.socket_path;
  shared.params = &params;
  shared.seed = options.seed;
  shared.targets = &testbed->targets;
  shared.index = &the_node.ht_index();

  std::vector<ClientTally> tallies(params.connections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < params.connections; ++c) {
    threads.emplace_back(RunConnection, &shared, c, &tallies[c]);
  }
  run_until(NowNanos() + static_cast<int64_t>(params.warmup_s * 1e9));
  int64_t measure_start = NowNanos();
  shared.measure_start.store(measure_start);
  shared.phase.store(kMeasure);
  // While tracing, the first half runs untraced and the second traced,
  // so the overhead compares the two halves of one load.
  const int64_t length = static_cast<int64_t>(options.seconds * 1e9);
  if (options.trace) {
    run_until(measure_start + length / 2);
    shared.trace.store(true);
  }
  run_until(measure_start + length);
  shared.phase.store(kStop);
  int64_t measure_end = NowNanos();
  for (std::thread& t : threads) t.join();

  // The same ServerStats the Stats op serializes, read in-process.
  server->Stop();
  rpc::ServerStats server_stats = server->StatsSnapshot();

  ClientTally total;
  size_t windows = static_cast<size_t>(
      static_cast<double>(measure_end - measure_start) / 1e9);
  std::vector<common::Histogram> per_window(std::max<size_t>(windows, 1));
  for (const ClientTally& t : tallies) {
    total.sent += t.sent;
    total.received_ok += t.received_ok;
    total.received_failures += t.received_failures;
    total.check_nanos += t.check_nanos;
    total.issued += t.issued;
    total.ok += t.ok;
    total.relaxed += t.relaxed;
    total.ring_members += t.ring_members;
    total.typed_failures += t.typed_failures;
    total.transport_failures += t.transport_failures;
    total.latency.MergeFrom(t.latency);
    total.codec_us.Append(t.codec_us);
    for (size_t w = 0; w < std::min(t.per_window.size(), per_window.size()); ++w) {
      per_window[w].MergeFrom(t.per_window[w]);
    }
    for (const std::string& v : t.violations) report->Violation(v);
  }

  // Conservation across the two ends: every Select a client sent was
  // admitted or shed by the server, and every verdict the server counted
  // reached a client as the same kind of verdict. A lost, duplicated or
  // misread reply breaks one of the three equalities.
  const uint64_t server_failures =
      server_stats.shed_overloaded + server_stats.cancelled +
      server_stats.timeouts + server_stats.unsatisfiable +
      server_stats.invalid_argument + server_stats.internal_errors;
  auto u = [](uint64_t v) { return static_cast<unsigned long long>(v); };
  if (total.sent != server_stats.admitted + server_stats.shed_overloaded) {
    report->Violation(StrFormat(
        "clients sent %llu selections, server admitted %llu and shed %llu",
        u(total.sent), u(server_stats.admitted),
        u(server_stats.shed_overloaded)));
  }
  if (total.received_ok != server_stats.ok) {
    report->Violation(StrFormat("clients received %llu OK replies, server "
                                "answered %llu",
                                u(total.received_ok), u(server_stats.ok)));
  }
  if (total.received_failures != server_failures) {
    report->Violation(StrFormat("clients received %llu failure verdicts, "
                                "server gave %llu",
                                u(total.received_failures), u(server_failures)));
  }
  if (total.issued == 0) report->Violation("no request completed");

  uint64_t failed = total.typed_failures + total.transport_failures;
  report->Note(StrFormat(
      "counts issued=%llu ok=%llu failed=%llu relaxed=%llu windows=%zu "
      "sent_with_warmup=%llu server_admitted=%llu server_ok=%llu",
      u(total.issued), u(total.ok), u(failed), u(total.relaxed),
      per_window.size(), u(total.sent), u(server_stats.admitted),
      u(server_stats.ok)));
  report->Note(StrFormat(
      "client-side ring checks took %.3f%% of the measured wall time on "
      "the shared CPU",
      100.0 * static_cast<double>(total.check_nanos) /
          static_cast<double>(measure_end - measure_start)));
  report->set_attempted(std::max<uint64_t>(total.issued, 1));
  report->set_failed(failed);

  double oks = static_cast<double>(std::max<uint64_t>(total.ok, 1));
  if (!options.trace) {
    Samples rates;
    Samples p50s;
    Samples p99s;
    for (const common::Histogram& w : per_window) {
      rates.Add(static_cast<double>(w.count()));
      p50s.Add(PercentileUs(w, 50.0));
      p99s.Add(PercentileUs(w, 99.0));
      if (CountAbove(w, 99.0) < 10) {
        report->Violation("a measured second has fewer than ten samples "
                          "beyond its p99");
      }
    }
    report->Note(StrFormat(
        "best decile of %zu one-second windows; pooled over the run: "
        "%.1f requests/s, p50 %.4f ms, p99 %.4f ms over %zu samples",
        per_window.size(),
        static_cast<double>(total.latency.count()) /
            (static_cast<double>(measure_end - measure_start) / 1e9),
        PercentileUs(total.latency, 50.0) / 1e3,
        PercentileUs(total.latency, 99.0) / 1e3,
        static_cast<size_t>(total.latency.count())));
    report->Metric("setup_s", MedianOf(setups), "s");
    report->Metric("ops_per_s", rates.Percentile(90.0), "1/s");
    report->Metric("op_p50_ms", p50s.Percentile(10.0) / 1e3, "ms");
    report->Metric("op_p99_ms", p99s.Percentile(10.0) / 1e3, "ms");
    report->Metric("ring_size_mean",
                   static_cast<double>(total.ring_members) / oks, "members");
    report->Metric("strict_frac",
                   1.0 - static_cast<double>(total.relaxed) / oks, "ratio");
    report->Metric("ok_frac",
                   static_cast<double>(total.ok) /
                       static_cast<double>(std::max<uint64_t>(total.issued, 1)),
                   "ratio");
    report->Metric("peak_rss_mb", PeakRssMb(), "MB");
    return 0;
  }

  // In-process replay of served targets through the same selector probe
  // the other workloads use, over the node's shared batch snapshots.
  const core::ResilientSelector selector;
  SelectorProbe probe(&selector, options.seed, true);
  for (size_t i = 0; i < params.replay; ++i) {
    core::SelectionInput input;
    input.target = TargetOf(shared, i % params.connections, i / params.connections);
    input.universe = the_node.batches().MixinUniverse(input.target);
    input.requirement = params.requirement;
    input.index = &the_node.ht_index();
    auto snapshot = the_node.AnalysisSnapshotShared(
        the_node.batches().BatchOfToken(input.target).index);
    input.history = snapshot->history;
    input.context = &snapshot->context;
    input.owner = snapshot;
    probe.BeginOp(i);
    (void)probe.Select(input, nullptr);
  }
  probe.layers().Emit(report);

  auto server_us = [](const common::Histogram& h, double p) {
    return h.count() == 0 ? 0.0 : h.PercentileInterpolated(p);
  };
  double rt_p50 = PercentileUs(total.latency, 50.0);
  double service_p50 = server_us(server_stats.latency_micros, 50.0);
  double queue_p50 = server_us(server_stats.queue_wait_micros, 50.0);
  report->Metric("rpc.roundtrip_us.p50", rt_p50, "us");
  report->Metric("rpc.roundtrip_us.p99", PercentileUs(total.latency, 99.0), "us");
  report->Metric("rpc.service_us.p50", service_p50, "us");
  report->Metric("rpc.service_us.p99",
                 server_us(server_stats.latency_micros, 99.0), "us");
  report->Metric("rpc.queue_wait_us.p50", queue_p50, "us");
  report->Metric("rpc.queue_wait_us.p99",
                 server_us(server_stats.queue_wait_micros, 99.0), "us");
  report->Metric("rpc.transport_us.p50", rt_p50 - service_p50 - queue_p50, "us");
  report->Metric("rpc.codec_us.p50", total.codec_us.Median(), "us");
  report->Metric("rpc.ok", static_cast<double>(server_stats.ok), "count");
  report->Metric("rpc.degraded", static_cast<double>(server_stats.degraded), "count");
  report->Metric("rpc.shed", static_cast<double>(server_stats.shed_overloaded), "count");
  report->Metric("rpc.timeouts", static_cast<double>(server_stats.timeouts), "count");
  report->Metric("chain.ledger_rs", static_cast<double>(the_node.ledger().size()),
                 "count");
  report->Metric("chain.tokens",
                 static_cast<double>(the_node.blockchain().token_count()), "count");
  report->Metric("chain.batches",
                 static_cast<double>(the_node.batches().batch_count()), "count");
  // Windows of the untraced first half against the traced second half.
  size_t split = per_window.size() / 2;
  std::vector<double> first;
  std::vector<double> second;
  for (size_t w = 0; w < per_window.size(); ++w) {
    (w < split ? first : second)
        .push_back(static_cast<double>(per_window[w].count()));
  }
  report->Metric("trace.overhead_frac",
                 split == 0 ? 0.0 : MedianOf(first) / MedianOf(second) - 1.0,
                 "ratio");
  return 0;
}

}  // namespace perfbench
