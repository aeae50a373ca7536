// Ablation A: cost of the cryptographic layer (Step 2/3 of the RS scheme,
// Section 2.1) as a function of ring size. The paper keeps Step 2/3
// unchanged and argues only Step 3 affects chain throughput; this bench
// quantifies sign (offline) and verify (online) costs for our LSAG over
// secp256k1, plus the primitive operations they decompose into.
//
// With TM_BENCH_JSON=<path> set, the binary instead times every kernel
// row — LSAG sign/verify at ring sizes 3 and 11, keygen, MulCT, MulBaseCT,
// MulAdd, HashToPoint, FieldInv — against the frozen textbook kernels in
// tests/reference/ (double-and-add, binary Shamir, Montgomery ladder,
// Fermat exponentiation), in the same process, and writes each row's
// microseconds and speedup to <path> (committed as BENCH_crypto.json;
// tools/bench/check_bench_regression.py gates the speedups).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "crypto/field.h"
#include "crypto/lsag.h"
#include "crypto/sha256.h"
#include "reference/secp256k1_kernels.h"

namespace tokenmagic::bench {
namespace {

struct RingSetup {
  std::vector<crypto::Keypair> keys;
  std::vector<crypto::Point> ring;
};

RingSetup MakeRing(size_t n) {
  common::Rng rng(1234 + n);
  RingSetup setup;
  for (size_t i = 0; i < n; ++i) {
    setup.keys.push_back(crypto::Keypair::Generate(&rng));
    setup.ring.push_back(setup.keys.back().pub);
  }
  return setup;
}

void BM_LsagSign(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  RingSetup setup = MakeRing(n);
  common::Rng rng(7);
  for (auto _ : state) {
    auto sig = crypto::Lsag::Sign(setup.ring, n / 2, setup.keys[n / 2],
                                  "bench tx", &rng);
    benchmark::DoNotOptimize(&sig);
  }
}
BENCHMARK(BM_LsagSign)->Arg(2)->Arg(5)->Arg(11)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_LsagVerify(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  RingSetup setup = MakeRing(n);
  common::Rng rng(7);
  auto sig = crypto::Lsag::Sign(setup.ring, n / 2, setup.keys[n / 2],
                                "bench tx", &rng);
  for (auto _ : state) {
    bool ok = crypto::Lsag::Verify(*sig, "bench tx");
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_LsagVerify)->Arg(2)->Arg(5)->Arg(11)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void BM_ScalarMulBase(benchmark::State& state) {
  common::Rng rng(9);
  crypto::U256 k(rng.Next(), rng.Next(), rng.Next(), 0);
  for (auto _ : state) {
    auto p = crypto::Secp256k1::MulBase(k);
    benchmark::DoNotOptimize(&p);
  }
}
BENCHMARK(BM_ScalarMulBase)->Unit(benchmark::kMicrosecond);

void BM_Sha256Throughput(benchmark::State& state) {
  std::string payload(static_cast<size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    auto digest = crypto::Sha256::Hash(payload);
    benchmark::DoNotOptimize(&digest);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(1024)->Arg(65536);

// ---------------------------------------------------------------------------
// Kernel rows: production kernel vs frozen oracle, same process.

// Per-call microseconds of `op`, timed over batches long enough
// (>= 20 ms) to swamp the clock's resolution.
class BatchTimer {
 public:
  explicit BatchTimer(std::function<void()> op) : op_(std::move(op)) {
    op_();  // warm-up: builds any lazily built table
    double once_us = Batch(1);
    iterations_ =
        std::max<size_t>(1, static_cast<size_t>(20000.0 / (once_us + 1e-3)));
  }

  double Batch() { return Batch(iterations_); }

 private:
  double Batch(size_t iterations) {
    auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < iterations; ++i) op_();
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
               .count() /
           static_cast<double>(iterations);
  }

  std::function<void()> op_;
  size_t iterations_ = 1;
};

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

struct KernelRow {
  std::string name;
  double new_us;
  double oracle_us;

  double Speedup() const { return new_us > 0.0 ? oracle_us / new_us : 0.0; }
};

// Medians over 7 rounds, each timing one batch of the kernel and then one
// of its oracle, so a slow spell of the machine hits both sides alike.
KernelRow TimeRow(std::string name, std::function<void()> fresh,
                  std::function<void()> oracle) {
  BatchTimer fresh_timer(std::move(fresh));
  BatchTimer oracle_timer(std::move(oracle));
  std::vector<double> fresh_us, oracle_us;
  for (int round = 0; round < 7; ++round) {
    fresh_us.push_back(fresh_timer.Batch());
    oracle_us.push_back(oracle_timer.Batch());
  }
  KernelRow row{std::move(name), Median(fresh_us), Median(oracle_us)};
  std::printf("  %-18s new %10.1f us  oracle %10.1f us  %5.2fx\n",
              row.name.c_str(), row.new_us, row.oracle_us, row.Speedup());
  return row;
}

crypto::U256 DrawScalar(common::Rng* rng) {
  crypto::U256 k;
  for (auto& limb : k.limbs) limb = rng->Next();
  return crypto::ScalarReduce(k);
}

crypto::Point HashPoint(std::string_view seed) {
  return crypto::Secp256k1::HashToPoint(
      reinterpret_cast<const uint8_t*>(seed.data()), seed.size());
}

std::vector<KernelRow> RunKernelRows() {
  using crypto::Point;
  using crypto::Secp256k1;
  using crypto::U256;
  std::vector<KernelRow> rows;
  for (size_t n : {size_t{3}, size_t{11}}) {
    RingSetup setup = MakeRing(n);
    const crypto::Keypair& signer = setup.keys[n / 2];
    common::Rng rng(7);
    rows.push_back(TimeRow(
        "lsag_sign_n" + std::to_string(n),
        [&] {
          auto sig = crypto::Lsag::Sign(setup.ring, n / 2, signer, "bench tx",
                                        &rng);
          benchmark::DoNotOptimize(&sig);
        },
        [&] {
          auto sig = reference::LsagSign(setup.ring, n / 2, signer,
                                         "bench tx", &rng);
          benchmark::DoNotOptimize(&sig);
        }));
    auto sig =
        crypto::Lsag::Sign(setup.ring, n / 2, signer, "bench tx", &rng);
    rows.push_back(TimeRow(
        "lsag_verify_n" + std::to_string(n),
        [&] {
          bool ok = crypto::Lsag::Verify(*sig, "bench tx");
          benchmark::DoNotOptimize(ok);
        },
        [&] {
          bool ok = reference::LsagVerify(*sig, "bench tx");
          benchmark::DoNotOptimize(ok);
        }));
  }

  common::Rng rng(9);
  U256 a = DrawScalar(&rng);
  U256 b = DrawScalar(&rng);
  Point p = HashPoint("bench/p");
  Point q = HashPoint("bench/q");
  const Point& g = Secp256k1::Generator();
  rows.push_back(TimeRow(
      "keygen",
      [&] {
        crypto::Keypair key = crypto::Keypair::Generate(&rng);
        benchmark::DoNotOptimize(&key);
      },
      [&] {
        Point pub = reference::LadderMul(DrawScalar(&rng), g);
        benchmark::DoNotOptimize(&pub);
      }));
  rows.push_back(TimeRow(
      "mul_ct",
      [&] {
        Point out = Secp256k1::MulCT(a, p);
        benchmark::DoNotOptimize(&out);
      },
      [&] {
        Point out = reference::LadderMul(a, p);
        benchmark::DoNotOptimize(&out);
      }));
  rows.push_back(TimeRow(
      "mul_base_ct",
      [&] {
        Point out = Secp256k1::MulBaseCT(a);
        benchmark::DoNotOptimize(&out);
      },
      [&] {
        Point out = reference::LadderMul(a, g);
        benchmark::DoNotOptimize(&out);
      }));
  // s·G + c·P (the L_i shape) and
  // s·Hp + c·I (the R_i shape: two variable points).
  rows.push_back(TimeRow(
      "mul_add_base",
      [&] {
        Point out = Secp256k1::MulAdd(a, g, b, p);
        benchmark::DoNotOptimize(&out);
      },
      [&] {
        Point out = reference::ShamirMulAdd(a, g, b, p);
        benchmark::DoNotOptimize(&out);
      }));
  rows.push_back(TimeRow(
      "mul_add",
      [&] {
        Point out = Secp256k1::MulAdd(a, p, b, q);
        benchmark::DoNotOptimize(&out);
      },
      [&] {
        Point out = reference::ShamirMulAdd(a, p, b, q);
        benchmark::DoNotOptimize(&out);
      }));
  std::string htp_seed = "bench/htp";
  const auto* htp_data = reinterpret_cast<const uint8_t*>(htp_seed.data());
  rows.push_back(TimeRow(
      "hash_to_point",
      [&] {
        Point out = Secp256k1::HashToPoint(htp_data, htp_seed.size());
        benchmark::DoNotOptimize(&out);
      },
      [&] {
        Point out = reference::HashToPoint(htp_data, htp_seed.size(),
                                           "tokenmagic/htp");
        benchmark::DoNotOptimize(&out);
      }));
  U256 z = p.x;
  rows.push_back(TimeRow(
      "field_inv",
      [&] {
        U256 out = crypto::FieldInv(z);
        benchmark::DoNotOptimize(&out);
      },
      [&] {
        U256 out = reference::FermatFieldInv(z);
        benchmark::DoNotOptimize(&out);
      }));
  return rows;
}

void WriteJson(const std::vector<KernelRow>& rows, const char* path) {
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path);
    std::exit(1);
  }
  std::fprintf(out, "{\n  \"bench\": \"crypto_kernels\",\n  \"rows\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& row = rows[i];
    std::fprintf(out,
                 "    {\"name\": \"%s\", \"new_us\": %.2f, "
                 "\"oracle_us\": %.2f, \"speedup\": %.2f}%s\n",
                 row.name.c_str(), row.new_us, row.oracle_us, row.Speedup(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
}

}  // namespace
}  // namespace tokenmagic::bench

int main(int argc, char** argv) {
  const char* path = std::getenv("TM_BENCH_JSON");
  if (path != nullptr) {
    std::printf("crypto kernels vs frozen oracle (median of 7 rounds):\n");
    tokenmagic::bench::WriteJson(tokenmagic::bench::RunKernelRows(), path);
    std::printf("wrote %s\n", path);
    return 0;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
