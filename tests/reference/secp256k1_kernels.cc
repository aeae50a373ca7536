#include "reference/secp256k1_kernels.h"

#include <algorithm>

#include "common/macros.h"
#include "crypto/field.h"
#include "crypto/sha256.h"

namespace tokenmagic::reference {

using crypto::FieldAdd;
using crypto::FieldMul;
using crypto::FieldPrime;
using crypto::FieldSqr;
using crypto::FieldSub;
using crypto::Point;
using crypto::Secp256k1;
using crypto::U256;

namespace {

// Jacobian projective point: (X, Y, Z) representing (X/Z^2, Y/Z^3).
struct Jacobian {
  U256 x;
  U256 y;
  U256 z;  // z == 0 encodes the identity

  static Jacobian Identity() {
    return Jacobian{U256::One(), U256::One(), U256::Zero()};
  }
  bool IsIdentity() const { return z.IsZero(); }
};

Jacobian ToJacobian(const Point& p) {
  if (p.infinity) return Jacobian::Identity();
  return Jacobian{p.x, p.y, U256::One()};
}

Point ToAffine(const Jacobian& j) {
  if (j.IsIdentity()) return Point::Infinity();
  U256 z_inv = FermatFieldInv(j.z);
  U256 z_inv2 = FieldSqr(z_inv);
  U256 z_inv3 = FieldMul(z_inv2, z_inv);
  Point p;
  p.x = FieldMul(j.x, z_inv2);
  p.y = FieldMul(j.y, z_inv3);
  p.infinity = false;
  return p;
}

// Doubling in Jacobian coordinates ("dbl-2007-bl" simplified for a = 0).
Jacobian JacobianDouble(const Jacobian& p) {
  if (p.IsIdentity() || p.y.IsZero()) return Jacobian::Identity();
  U256 a = FieldSqr(p.x);
  U256 b = FieldSqr(p.y);
  U256 c = FieldSqr(b);
  U256 x_plus_b = FieldAdd(p.x, b);
  U256 d = FieldSub(FieldSub(FieldSqr(x_plus_b), a), c);
  d = FieldAdd(d, d);
  U256 e = FieldAdd(FieldAdd(a, a), a);
  U256 f = FieldSqr(e);
  Jacobian out;
  out.x = FieldSub(f, FieldAdd(d, d));
  U256 c8 = FieldAdd(c, c);
  c8 = FieldAdd(c8, c8);
  c8 = FieldAdd(c8, c8);
  out.y = FieldSub(FieldMul(e, FieldSub(d, out.x)), c8);
  out.z = FieldMul(FieldAdd(p.y, p.y), p.z);
  return out;
}

// General addition in Jacobian coordinates ("add-2007-bl").
Jacobian JacobianAdd(const Jacobian& p, const Jacobian& q) {
  if (p.IsIdentity()) return q;
  if (q.IsIdentity()) return p;
  U256 z1z1 = FieldSqr(p.z);
  U256 z2z2 = FieldSqr(q.z);
  U256 u1 = FieldMul(p.x, z2z2);
  U256 u2 = FieldMul(q.x, z1z1);
  U256 s1 = FieldMul(FieldMul(p.y, q.z), z2z2);
  U256 s2 = FieldMul(FieldMul(q.y, p.z), z1z1);
  if (u1 == u2) {
    if (s1 == s2) return JacobianDouble(p);
    return Jacobian::Identity();
  }
  U256 h = FieldSub(u2, u1);
  U256 i = FieldSqr(FieldAdd(h, h));
  U256 j = FieldMul(h, i);
  U256 r = FieldSub(s2, s1);
  r = FieldAdd(r, r);
  U256 v = FieldMul(u1, i);
  Jacobian out;
  out.x = FieldSub(FieldSub(FieldSqr(r), j), FieldAdd(v, v));
  U256 s1j = FieldMul(s1, j);
  out.y = FieldSub(FieldMul(r, FieldSub(v, out.x)), FieldAdd(s1j, s1j));
  U256 z_sum = FieldAdd(p.z, q.z);
  out.z = FieldMul(FieldSub(FieldSub(FieldSqr(z_sum), z1z1), z2z2), h);
  return out;
}

Jacobian JacobianMul(const U256& k, const Jacobian& p) {
  Jacobian acc = Jacobian::Identity();
  int top = k.HighestBit();
  for (int i = top; i >= 0; --i) {
    acc = JacobianDouble(acc);
    if (k.Bit(i)) acc = JacobianAdd(acc, p);
  }
  return acc;
}

void JacobianCondSwap(uint64_t swap, Jacobian* a, Jacobian* b) {
  uint64_t mask = 0 - swap;
  for (int i = 0; i < 4; ++i) {
    uint64_t tx = mask & (a->x.limbs[i] ^ b->x.limbs[i]);
    a->x.limbs[i] ^= tx;
    b->x.limbs[i] ^= tx;
    uint64_t ty = mask & (a->y.limbs[i] ^ b->y.limbs[i]);
    a->y.limbs[i] ^= ty;
    b->y.limbs[i] ^= ty;
    uint64_t tz = mask & (a->z.limbs[i] ^ b->z.limbs[i]);
    a->z.limbs[i] ^= tz;
    b->z.limbs[i] ^= tz;
  }
}

Jacobian JacobianMulLadder(const U256& k, const Jacobian& p) {
  Jacobian r0 = Jacobian::Identity();
  Jacobian r1 = p;
  uint64_t swap = 0;
  for (int i = 255; i >= 0; --i) {
    uint64_t bit = (k.limbs[i >> 6] >> (i & 63)) & 1;
    swap ^= bit;
    JacobianCondSwap(swap, &r0, &r1);
    swap = bit;
    r1 = JacobianAdd(r0, r1);
    r0 = JacobianDouble(r0);
  }
  JacobianCondSwap(swap, &r0, &r1);
  return r0;
}

// (p + 1) / 4 and p - 2 as exponents.
U256 SqrtExponent() {
  U256 exponent;
  U256::Add(FieldPrime(), U256::One(), &exponent);
  for (int shift = 0; shift < 2; ++shift) {
    uint64_t carry = 0;
    for (int i = 3; i >= 0; --i) {
      uint64_t next = exponent.limbs[i] & 1;
      exponent.limbs[i] = (exponent.limbs[i] >> 1) | (carry << 63);
      carry = next;
    }
  }
  return exponent;
}

crypto::Point HashPointOfKey(const Point& pub) {
  auto enc = pub.Encode();
  return HashToPoint(enc.data(), enc.size(), "tokenmagic/lsag-hp");
}

U256 ChainChallenge(const std::vector<Point>& ring, const Point& key_image,
                    std::string_view message, const Point& l, const Point& r) {
  crypto::Sha256 hasher;
  hasher.Update("tokenmagic/lsag-chal");
  for (const Point& member : ring) {
    auto enc = member.Encode();
    hasher.Update(enc.data(), enc.size());
  }
  auto img = key_image.Encode();
  hasher.Update(img.data(), img.size());
  hasher.Update(message);
  auto l_enc = l.Encode();
  hasher.Update(l_enc.data(), l_enc.size());
  auto r_enc = r.Encode();
  hasher.Update(r_enc.data(), r_enc.size());
  auto digest = hasher.Finalize();
  U256 c = crypto::ScalarReduce(U256::FromBytes(digest.data()));
  if (c.IsZero()) c = U256::One();
  return c;
}

U256 RandomScalar(common::Rng* rng) {
  U256 value;
  do {
    for (auto& limb : value.limbs) limb = rng->Next();
    value = crypto::ScalarReduce(value);
  } while (value.IsZero());
  return value;
}

}  // namespace

U256 FermatFieldInv(const U256& a) {
  TM_CHECK(!a.IsZero());
  U256 exponent;
  U256::Sub(FieldPrime(), U256(2), &exponent);
  return crypto::FieldPow(a, exponent);
}

bool FermatFieldSqrt(const U256& a, U256* root) {
  TM_CHECK(root != nullptr);
  U256 candidate = crypto::FieldPow(a, SqrtExponent());
  if (FieldSqr(candidate) == U256::Mod(a, FieldPrime())) {
    *root = candidate;
    return true;
  }
  return false;
}

Point DoubleAndAddMul(const U256& k, const Point& p) {
  if (k.IsZero() || p.infinity) return Point::Infinity();
  return ToAffine(JacobianMul(k, ToJacobian(p)));
}

Point ShamirMulAdd(const U256& a, const Point& p, const U256& b,
                   const Point& q) {
  Jacobian jp = ToJacobian(p);
  Jacobian jq = ToJacobian(q);
  Jacobian sum = JacobianAdd(jp, jq);
  Jacobian acc = Jacobian::Identity();
  int top = std::max(a.HighestBit(), b.HighestBit());
  for (int i = top; i >= 0; --i) {
    acc = JacobianDouble(acc);
    bool bit_a = i <= a.HighestBit() && a.Bit(i);
    bool bit_b = i <= b.HighestBit() && b.Bit(i);
    if (bit_a && bit_b) {
      acc = JacobianAdd(acc, sum);
    } else if (bit_a) {
      acc = JacobianAdd(acc, jp);
    } else if (bit_b) {
      acc = JacobianAdd(acc, jq);
    }
  }
  return ToAffine(acc);
}

Point LadderMul(const U256& k, const Point& p) {
  return ToAffine(JacobianMulLadder(k, ToJacobian(p)));
}

Point HashToPoint(const uint8_t* data, size_t size,
                  std::string_view domain_tag) {
  for (uint32_t counter = 0;; ++counter) {
    crypto::Sha256 hasher;
    hasher.Update(domain_tag);
    hasher.Update(data, size);
    uint8_t counter_bytes[4] = {
        static_cast<uint8_t>(counter >> 24), static_cast<uint8_t>(counter >> 16),
        static_cast<uint8_t>(counter >> 8), static_cast<uint8_t>(counter)};
    hasher.Update(counter_bytes, 4);
    auto digest = hasher.Finalize();
    U256 x = U256::FromBytes(digest.data());
    if (x >= FieldPrime()) continue;
    U256 rhs = FieldAdd(FieldMul(FieldSqr(x), x), U256(7));
    U256 y;
    if (!FermatFieldSqrt(rhs, &y)) continue;
    if (y.IsOdd()) y = crypto::FieldNeg(y);
    Point p;
    p.x = x;
    p.y = y;
    p.infinity = false;
    return p;
  }
}

common::Result<crypto::LsagSignature> LsagSign(
    const std::vector<Point>& ring, size_t signer_index,
    const crypto::Keypair& signer, std::string_view message,
    common::Rng* rng) {
  using common::Status;
  if (ring.size() < 2 || signer_index >= ring.size() ||
      ring[signer_index] != signer.pub) {
    return Status::InvalidArgument("reference LSAG: bad ring or signer");
  }
  const size_t n = ring.size();
  crypto::LsagSignature sig;
  sig.ring = ring;
  sig.responses.assign(n, U256::Zero());
  Point hp_signer = HashPointOfKey(signer.pub);
  sig.key_image = LadderMul(signer.secret, hp_signer);
  U256 u = RandomScalar(rng);
  Point l = LadderMul(u, Secp256k1::Generator());
  Point r = LadderMul(u, hp_signer);
  std::vector<U256> challenges(n, U256::Zero());
  size_t next = (signer_index + 1) % n;
  challenges[next] = ChainChallenge(ring, sig.key_image, message, l, r);
  for (size_t step = 1; step < n; ++step) {
    size_t i = (signer_index + step) % n;
    sig.responses[i] = RandomScalar(rng);
    Point hp_i = HashPointOfKey(ring[i]);
    Point l_i = ShamirMulAdd(sig.responses[i], Secp256k1::Generator(),
                             challenges[i], ring[i]);
    Point r_i = ShamirMulAdd(sig.responses[i], hp_i, challenges[i],
                             sig.key_image);
    challenges[(i + 1) % n] =
        ChainChallenge(ring, sig.key_image, message, l_i, r_i);
  }
  sig.responses[signer_index] = crypto::ScalarSub(
      u, crypto::ScalarMul(challenges[signer_index], signer.secret));
  sig.c0 = challenges[0];
  return sig;
}

bool LsagVerify(const crypto::LsagSignature& sig, std::string_view message) {
  const size_t n = sig.ring.size();
  if (n < 2 || sig.responses.size() != n) return false;
  if (sig.key_image.infinity || !Secp256k1::IsOnCurve(sig.key_image)) {
    return false;
  }
  if (sig.c0.IsZero() || sig.c0 >= crypto::GroupOrder()) return false;
  for (const Point& member : sig.ring) {
    if (member.infinity || !Secp256k1::IsOnCurve(member)) return false;
  }
  for (const U256& s : sig.responses) {
    if (s >= crypto::GroupOrder()) return false;
  }
  U256 c = sig.c0;
  for (size_t i = 0; i < n; ++i) {
    Point hp_i = HashPointOfKey(sig.ring[i]);
    Point l_i = ShamirMulAdd(sig.responses[i], Secp256k1::Generator(), c,
                             sig.ring[i]);
    Point r_i = ShamirMulAdd(sig.responses[i], hp_i, c, sig.key_image);
    c = ChainChallenge(sig.ring, sig.key_image, message, l_i, r_i);
  }
  return c == sig.c0;
}

}  // namespace tokenmagic::reference
