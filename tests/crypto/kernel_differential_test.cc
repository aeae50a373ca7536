// Differential test of the secp256k1 kernels against the frozen textbook
// oracle in tests/reference/: the GLV + wNAF variable-time kernel
// (Mul / MulBase / MulAdd), the signed-digit window (MulCT), the
// fixed-base comb (MulBaseCT) and the addition-chain FieldInv /
// FieldSqrt must produce the oracle's encoded output, bit for bit, on
// edge-case and seeded random inputs. An LSAG known-answer vector pins
// the signature bytes a seeded rng produces.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "crypto/field.h"
#include "crypto/keys.h"
#include "crypto/lsag.h"
#include "crypto/secp256k1.h"
#include "crypto/serialize.h"
#include "crypto/sha256.h"
#include "reference/secp256k1_kernels.h"

namespace tokenmagic::crypto {
namespace {

U256 Hex(const char* hex) {
  U256 out;
  EXPECT_TRUE(U256::FromHex(hex, &out)) << hex;
  return out;
}

U256 Neg(const U256& k) {  // n - k (mod n)
  return ScalarSub(U256::Zero(), ScalarReduce(k));
}

const U256& Lambda() {
  static const U256 lambda =
      Hex("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
  return lambda;
}

U256 RandomScalar(common::Rng* rng) {
  U256 k;
  for (auto& limb : k.limbs) limb = rng->Next();
  return ScalarReduce(k);
}

// Every scalar class the kernels special-case or could get wrong.
std::vector<U256> EdgeScalars() {
  std::vector<U256> scalars = {U256(0), U256(1), U256(2), U256(15),
                               U256(16)};
  U256 n_minus_1, n_minus_2;
  U256::Sub(GroupOrder(), U256(1), &n_minus_1);
  U256::Sub(GroupOrder(), U256(2), &n_minus_2);
  scalars.push_back(n_minus_1);
  scalars.push_back(n_minus_2);
  scalars.push_back(Lambda());
  scalars.push_back(U256(0, 0, 0, uint64_t{1} << 63));  // 2^255
  for (uint64_t m = 1; m < 16; ++m) {                    // m * 2^252
    scalars.push_back(U256(0, 0, 0, m << 60));
  }
  // k = ±a ± b·λ with GLV halves at the 2^128 boundary.
  const U256 halves[] = {U256(~0ull, ~0ull, 0, 0),        // 2^128 - 1
                         U256(0, uint64_t{1} << 63, 0, 0),  // 2^127
                         U256(0, ~0ull, 0, 0)};             // 2^128 - 2^64
  for (const U256& a : halves) {
    for (const U256& b : halves) {
      U256 b_lambda = ScalarMul(b, Lambda());
      scalars.push_back(ScalarAdd(a, b_lambda));
      scalars.push_back(ScalarSub(a, b_lambda));
      scalars.push_back(ScalarAdd(Neg(a), b_lambda));
    }
  }
  common::Rng rng(0x6c76);
  for (int i = 0; i < 8; ++i) scalars.push_back(RandomScalar(&rng));
  return scalars;
}

Point HashPoint(int i) {
  std::string seed = "kernel-differential/" + std::to_string(i);
  return Secp256k1::HashToPoint(reinterpret_cast<const uint8_t*>(seed.data()),
                                seed.size());
}

// G, -G, hash-to-point outputs and the identity.
std::vector<Point> EdgePoints() {
  const Point& g = Secp256k1::Generator();
  return {g, Secp256k1::Negate(g), HashPoint(0), HashPoint(1),
          Point::Infinity()};
}

TEST(KernelDifferentialTest, MulMatchesDoubleAndAdd) {
  for (const Point& p : EdgePoints()) {
    for (const U256& k : EdgeScalars()) {
      EXPECT_EQ(Secp256k1::Mul(k, p).Encode(),
                reference::DoubleAndAddMul(k, p).Encode())
          << "k=" << k.ToHex() << " p=" << p.ToString();
    }
  }
}

TEST(KernelDifferentialTest, MulBaseMatchesDoubleAndAdd) {
  for (const U256& k : EdgeScalars()) {
    EXPECT_EQ(Secp256k1::MulBase(k).Encode(),
              reference::DoubleAndAddMul(k, Secp256k1::Generator()).Encode())
        << "k=" << k.ToHex();
  }
}

TEST(KernelDifferentialTest, MulCTMatchesLadder) {
  for (const Point& p : EdgePoints()) {
    for (const U256& k : EdgeScalars()) {
      EXPECT_EQ(Secp256k1::MulCT(k, p).Encode(),
                reference::LadderMul(k, p).Encode())
          << "k=" << k.ToHex() << " p=" << p.ToString();
    }
  }
}

TEST(KernelDifferentialTest, MulBaseCTMatchesLadder) {
  for (const U256& k : EdgeScalars()) {
    EXPECT_EQ(Secp256k1::MulBaseCT(k).Encode(),
              reference::LadderMul(k, Secp256k1::Generator()).Encode())
        << "k=" << k.ToHex();
  }
}

TEST(KernelDifferentialTest, MulAddMatchesShamir) {
  const Point& g = Secp256k1::Generator();
  Point h = HashPoint(2);
  struct Pair {
    Point p;
    Point q;
  };
  // Distinct points, P = Q, Q = -P, G on either side, and the identity.
  // G + G with a == b runs two identical digit streams over the static
  // tables, so the mixed addition meets its doubling case.
  const Pair pairs[] = {{g, h},
                        {h, g},
                        {h, h},
                        {g, g},
                        {h, Secp256k1::Negate(h)},
                        {g, Secp256k1::Negate(g)},
                        {Point::Infinity(), h},
                        {g, Point::Infinity()}};
  std::vector<U256> scalars = EdgeScalars();
  common::Rng rng(0x5a3);
  for (const Pair& pair : pairs) {
    for (size_t i = 0; i < scalars.size(); i += 3) {
      const U256& a = scalars[i];
      // Same scalar, its negation, and an unrelated one on the other side.
      const U256 others[] = {a, Neg(a),
                             scalars[rng.Next() % scalars.size()]};
      for (const U256& b : others) {
        EXPECT_EQ(Secp256k1::MulAdd(a, pair.p, b, pair.q).Encode(),
                  reference::ShamirMulAdd(a, pair.p, b, pair.q).Encode())
            << "a=" << a.ToHex() << " b=" << b.ToHex();
      }
    }
  }
}

TEST(KernelDifferentialTest, LambdaActsAsTheEndomorphism) {
  // λ·(x, y) = (β·x, y): checks the GLV constants against the oracle.
  const U256 beta =
      Hex("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee");
  for (const Point& p : EdgePoints()) {
    if (p.infinity) continue;
    Point expected = reference::DoubleAndAddMul(Lambda(), p);
    EXPECT_EQ(expected.x, FieldMul(beta, p.x));
    EXPECT_EQ(expected.y, p.y);
  }
}

TEST(KernelDifferentialTest, FieldInvMatchesFermat) {
  U256 p_minus_1;
  U256::Sub(FieldPrime(), U256(1), &p_minus_1);
  std::vector<U256> values = {U256(1), U256(2), U256(3), p_minus_1};
  common::Rng rng(0x1117);
  for (int i = 0; i < 32; ++i) {
    U256 v(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    values.push_back(U256::Mod(v, FieldPrime()));
  }
  for (const U256& v : values) {
    if (v.IsZero()) continue;
    EXPECT_EQ(FieldInv(v), reference::FermatFieldInv(v)) << v.ToHex();
  }
}

TEST(KernelDifferentialTest, FieldSqrtMatchesFermat) {
  common::Rng rng(0x5427);
  int residues = 0;
  std::vector<U256> values = {U256(0), U256(1), U256(4), U256(7)};
  for (int i = 0; i < 48; ++i) {
    U256 v(rng.Next(), rng.Next(), rng.Next(), rng.Next());
    values.push_back(U256::Mod(v, FieldPrime()));
  }
  for (const U256& v : values) {
    U256 root, oracle_root;
    bool ok = FieldSqrt(v, &root);
    bool oracle_ok = reference::FermatFieldSqrt(v, &oracle_root);
    ASSERT_EQ(ok, oracle_ok) << v.ToHex();
    if (ok) {
      EXPECT_EQ(root, oracle_root) << v.ToHex();
      ++residues;
    }
  }
  EXPECT_GT(residues, 10);  // both branches exercised
}

TEST(KernelDifferentialTest, HashToPointMatchesOracle) {
  for (int i = 0; i < 16; ++i) {
    std::string seed = "htp/" + std::to_string(i);
    const auto* data = reinterpret_cast<const uint8_t*>(seed.data());
    EXPECT_EQ(Secp256k1::HashToPoint(data, seed.size(), "tag").Encode(),
              reference::HashToPoint(data, seed.size(), "tag").Encode());
  }
}

TEST(KernelDifferentialTest, SeededRandomScalarsAndPoints) {
  common::Rng rng(0xd1ff);
  for (int i = 0; i < 12; ++i) {
    U256 a = RandomScalar(&rng);
    U256 b = RandomScalar(&rng);
    Point p = HashPoint(100 + i);
    Point q = Secp256k1::MulBase(RandomScalar(&rng));
    EXPECT_EQ(Secp256k1::Mul(a, p).Encode(),
              reference::DoubleAndAddMul(a, p).Encode());
    EXPECT_EQ(Secp256k1::MulCT(a, p).Encode(),
              reference::LadderMul(a, p).Encode());
    EXPECT_EQ(Secp256k1::MulBaseCT(b).Encode(),
              reference::LadderMul(b, Secp256k1::Generator()).Encode());
    EXPECT_EQ(Secp256k1::MulAdd(a, p, b, q).Encode(),
              reference::ShamirMulAdd(a, p, b, q).Encode());
  }
}

struct KnownAnswer {
  std::vector<Keypair> keys;
  std::vector<Point> ring;
};

KnownAnswer KnownAnswerRing(common::Rng* rng) {
  KnownAnswer kat;
  for (int i = 0; i < 3; ++i) {
    kat.keys.push_back(Keypair::Generate(rng));
    kat.ring.push_back(kat.keys.back().pub);
  }
  return kat;
}

constexpr const char* kKatMessage = "tokenmagic lsag known answer";

TEST(KernelDifferentialTest, LsagKnownAnswerVector) {
  // Recorded from the textbook kernels (double-and-add, Shamir, the
  // Montgomery ladder, Fermat inversion): the kernels may change how a
  // signature is computed, never its bytes.
  common::Rng rng(20211);
  KnownAnswer kat = KnownAnswerRing(&rng);
  auto sig = Lsag::Sign(kat.ring, 1, kat.keys[1], kKatMessage, &rng);
  ASSERT_TRUE(sig.ok());
  std::vector<uint8_t> bytes = SerializeLsag(*sig);
  ASSERT_EQ(bytes.size(), 265u);
  auto digest = Sha256::Hash(bytes.data(), bytes.size());
  EXPECT_EQ(common::HexEncode(digest.data(), digest.size()),
            "fc2ec1ae5710649fdaa2f0cf497659dfc7ccf5983cd20ee189869d810eaa2254");
  auto image = sig->key_image.Encode();
  EXPECT_EQ(common::HexEncode(image.data(), image.size()),
            "0310fb4a27d628fc48e77ba5c1e472777573dfc4f65840f03efc9e83eace22b4"
            "40");
  EXPECT_TRUE(Lsag::Verify(*sig, kKatMessage));
  EXPECT_TRUE(reference::LsagVerify(*sig, kKatMessage));
}

TEST(KernelDifferentialTest, LsagMatchesOracleSignatureBytes) {
  for (size_t n : {size_t{2}, size_t{5}}) {
    common::Rng keys_rng(n);
    std::vector<Keypair> keys;
    std::vector<Point> ring;
    for (size_t i = 0; i < n; ++i) {
      keys.push_back(Keypair::Generate(&keys_rng));
      ring.push_back(keys.back().pub);
    }
    common::Rng rng(77), oracle_rng(77);
    auto sig = Lsag::Sign(ring, n - 1, keys[n - 1], "m", &rng);
    auto oracle = reference::LsagSign(ring, n - 1, keys[n - 1], "m",
                                      &oracle_rng);
    ASSERT_TRUE(sig.ok());
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(SerializeLsag(*sig), SerializeLsag(*oracle)) << "n=" << n;
    EXPECT_TRUE(reference::LsagVerify(*sig, "m"));
    EXPECT_FALSE(reference::LsagVerify(*sig, "other"));
  }
}

}  // namespace
}  // namespace tokenmagic::crypto
