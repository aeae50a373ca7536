// Shared measurement plumbing of tm_perfbench: sample sets and
// percentiles, process memory, per-operation rngs, the work digest, ring
// output checks, and the result report whose last line is the JSON result
// object ({"correct", "attempted", "failed", "metrics"}).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "chain/ht_index.h"
#include "chain/types.h"
#include "common/rng.h"
#include "common/status.h"
#include "crypto/sha256.h"

namespace perfbench {

using tokenmagic::chain::DiversityRequirement;
using tokenmagic::chain::TokenId;

/// Monotonic nanoseconds (std::chrono::steady_clock).
int64_t NowNanos();

/// A set of per-operation observations. Percentiles interpolate linearly
/// between order statistics of a sorted copy.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t count() const { return values_.size(); }
  /// p in [0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50.0); }
  /// Samples strictly above the p-th percentile; a tail percentile is
  /// reported only when at least ten lie beyond it.
  size_t CountAbove(double p) const;

 private:
  std::vector<double> values_;
};

/// Median of a small vector (per-round or per-setup figures).
double MedianOf(std::vector<double> values);

/// Peak resident set size of this process so far (VmHWM), in MB.
double PeakRssMb();
/// Current resident set size (/proc/self/statm), in MB.
double CurrentRssMb();

/// The rng of operation `op` of a run seeded with `seed`: every operation
/// draws from its own stream, so an operation's inputs do not depend on
/// how many draws earlier operations made.
tokenmagic::common::Rng OpRng(uint64_t seed, uint64_t op);

/// Sha256 over the exact work a run did (rings and verdicts), so two runs
/// of one seed can be compared bit for bit.
class WorkDigest {
 public:
  void Add(uint64_t value);
  void AddRing(std::span<const TokenId> members);
  /// Finalizes; the digest must not be updated afterwards.
  std::string Hex();

 private:
  tokenmagic::crypto::Sha256 sha_;
};

/// Output check of one returned ring: it contains `target`, is sorted
/// strictly ascending (so unique), and satisfies recursive
/// (c, ℓ)-diversity at `satisfied`. Returns "" when the ring is valid, a
/// description of the first violation otherwise.
std::string CheckRing(TokenId target, std::span<const TokenId> members,
                      const DiversityRequirement& satisfied,
                      const tokenmagic::chain::HtIndex& index);

/// True when `status` is a failure with a known StatusCode and a message:
/// the typed-verdict contract every refused operation must honour.
bool IsTypedFailure(const tokenmagic::common::Status& status);

/// Requirement strictly weaker than requested: the ladder relaxed it.
inline bool Relaxed(const DiversityRequirement& satisfied,
                    const DiversityRequirement& requested) {
  return !(satisfied == requested);
}

/// Collects the result of one run and prints it: one "metric" line per
/// metric, "check" lines for violated output checks, then the JSON line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// A tail percentile together with its sample count and the number of
  /// samples beyond it (the line shows both).
  void Tail(const std::string& name, const Samples& samples, double p,
            const std::string& unit);
  /// Free-form informational line (work digest, exact counts).
  void Note(const std::string& line);
  /// Records a violated output check; the run then reports
  /// "correct": false and exits non-zero.
  void Violation(const std::string& what);

  void set_attempted(uint64_t n) { attempted_ = n; }
  void set_failed(uint64_t n) { failed_ = n; }
  bool correct() const { return violations_.empty(); }
  bool Has(const std::string& name) const;
  /// Names of the metrics reported so far, in order.
  std::vector<std::string> Names() const;

  /// Prints everything to stdout; returns the process exit code.
  int Print() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  std::vector<std::string> notes_;
  std::vector<std::string> violations_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Command-line options shared by every workload.
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Shrinks every workload to a few seconds of fixed work (the
  /// determinism test); full size otherwise.
  bool small = false;
  /// Directory for the serve workload's AF_UNIX socket.
  std::string socket_dir = ".";
};

int RunIngest(const RunOptions& options, Report* report);
int RunSelectWide(const RunOptions& options, Report* report);
int RunServe(const RunOptions& options, Report* report);

}  // namespace perfbench
