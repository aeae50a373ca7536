#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "analysis/diversity.h"
#include "common/strings.h"

namespace perfbench {

using tokenmagic::common::Status;
using tokenmagic::common::StatusCode;

int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

size_t Samples::CountAbove(double p) const {
  double cut = Percentile(p);
  return static_cast<size_t>(std::count_if(
      values_.begin(), values_.end(), [cut](double v) { return v > cut; }));
}

double MedianOf(std::vector<double> values) {
  Samples samples;
  for (double v : values) samples.Add(v);
  return samples.Median();
}

double PeakRssMb() {
  // VmHWM is this address space's high-water mark. getrusage's ru_maxrss
  // would also count the parent's footprint inherited across execve.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages_total = 0;
  long pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return static_cast<double>(pages_resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

tokenmagic::common::Rng OpRng(uint64_t seed, uint64_t op) {
  uint64_t state = seed ^ 0x5eedba5eull;
  uint64_t mixed = tokenmagic::common::SplitMix64(&state);
  state = mixed ^ (op * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull);
  return tokenmagic::common::Rng(tokenmagic::common::SplitMix64(&state));
}

void WorkDigest::Add(uint64_t value) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(value >> (8 * i));
  sha_.Update(bytes, sizeof(bytes));
}

void WorkDigest::AddRing(std::span<const TokenId> members) {
  Add(members.size());
  for (TokenId t : members) Add(t);
}

std::string WorkDigest::Hex() {
  auto digest = sha_.Finalize();
  return tokenmagic::common::HexEncode(digest.data(), digest.size());
}

std::string CheckRing(TokenId target, std::span<const TokenId> members,
                      const DiversityRequirement& satisfied,
                      const tokenmagic::chain::HtIndex& index) {
  using tokenmagic::common::StrFormat;
  if (!std::binary_search(members.begin(), members.end(), target)) {
    return StrFormat("ring of %zu members misses its target %llu",
                     members.size(), static_cast<unsigned long long>(target));
  }
  for (size_t i = 1; i < members.size(); ++i) {
    if (members[i - 1] >= members[i]) {
      return StrFormat("ring of target %llu is not sorted and unique",
                       static_cast<unsigned long long>(target));
    }
  }
  if (!tokenmagic::analysis::SatisfiesRecursiveDiversity(members, index,
                                                         satisfied)) {
    return StrFormat("ring of target %llu fails its reported requirement %s",
                     static_cast<unsigned long long>(target),
                     satisfied.ToString().c_str());
  }
  return "";
}

bool IsTypedFailure(const Status& status) {
  if (status.ok() || status.message().empty()) return false;
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kAlreadyExists:
    case StatusCode::kOutOfRange:
    case StatusCode::kUnsatisfiable:
    case StatusCode::kResourceExhausted:
    case StatusCode::kInternal:
    case StatusCode::kVerificationFailed:
    case StatusCode::kIoError:
    case StatusCode::kTimeout:
    case StatusCode::kCancelled:
      return true;
    case StatusCode::kOk:
      return false;
  }
  return false;
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back(Entry{name, value, unit});
}

void Report::Tail(const std::string& name, const Samples& samples, double p,
                  const std::string& unit) {
  size_t beyond = samples.CountAbove(p);
  Note(tokenmagic::common::StrFormat("%s: p%g over %zu samples, %zu beyond",
                                     name.c_str(), p, samples.count(),
                                     beyond));
  if (beyond < 10) {
    Violation(name + ": fewer than ten samples beyond the percentile");
  }
  Metric(name, samples.Percentile(p), unit);
}

bool Report::Has(const std::string& name) const {
  for (const Entry& m : metrics_) {
    if (m.name == name) return true;
  }
  return false;
}

std::vector<std::string> Report::Names() const {
  std::vector<std::string> names;
  for (const Entry& m : metrics_) names.push_back(m.name);
  return names;
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Violation(const std::string& what) {
  // Keep the report readable when one defect repeats on every operation.
  if (violations_.size() < 20) violations_.push_back(what);
  if (violations_.size() == 20) violations_.push_back("(further violations omitted)");
}

int Report::Print() const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  for (const std::string& v : violations_) std::printf("check FAILED: %s\n", v.c_str());
  for (const Entry& m : metrics_) {
    std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::string json = tokenmagic::common::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      correct() ? "true" : "false",
      static_cast<unsigned long long>(attempted_),
      static_cast<unsigned long long>(failed_));
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& m = metrics_[i];
    double value = std::isfinite(m.value) ? m.value : 0.0;
    json += tokenmagic::common::StrFormat(
        "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
        m.name.c_str(), value, m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perfbench
