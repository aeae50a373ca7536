// secp256k1 group arithmetic (y^2 = x^3 + 7 over F_p).
//
// Points are handled in affine form at the API boundary and in Jacobian
// projective coordinates internally to avoid a field inversion per group
// operation. Verified in tests against the published generator multiples.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "crypto/field.h"
#include "crypto/u256.h"

namespace tokenmagic::crypto {

/// An affine curve point; (0, 0) with infinity flag encodes the identity.
struct Point {
  U256 x;
  U256 y;
  bool infinity = true;

  static Point Infinity() { return Point{}; }

  bool operator==(const Point& other) const;
  bool operator!=(const Point& other) const { return !(*this == other); }

  /// SEC1 compressed encoding (33 bytes: 02/03 prefix + big-endian x).
  /// Identity encodes as 33 zero bytes.
  std::array<uint8_t, 33> Encode() const;
  /// Decodes a compressed point; returns nullopt for malformed or
  /// off-curve encodings.
  static std::optional<Point> Decode(const std::array<uint8_t, 33>& bytes);

  std::string ToString() const;
};

/// The secp256k1 group.
class Secp256k1 {
 public:
  /// The standard generator G.
  static const Point& Generator();

  /// True when `p` is the identity or satisfies the curve equation.
  static bool IsOnCurve(const Point& p);

  /// Group addition (complete: handles identity and doubling).
  static Point Add(const Point& a, const Point& b);

  /// Point doubling.
  static Point Double(const Point& p);

  /// Additive inverse.
  static Point Negate(const Point& p);

  /// Scalar multiplication k * p (k taken mod n). Variable-time: GLV
  /// split into two ~128-bit halves, width-w NAF digits, Straus
  /// interleaving. The digits of `k` shape the instruction stream, so this
  /// must only ever see public scalars (verification, test vectors).
  static Point Mul(const U256& k, const Point& p);

  /// k * G with the fixed generator, from static affine tables of odd
  /// multiples of G and λG built on first use. Variable-time; public
  /// scalars only.
  static Point MulBase(const U256& k);

  /// k * p (k taken mod n) whose source contains no branch or memory
  /// access indexed by the digits of `k`: the scalar is recoded into 64
  /// odd signed base-16 digits, and every window performs four doublings
  /// and one addition of an entry read by a masked scan of the whole
  /// 16-entry table. Use for every secret scalar (signing nonces, private
  /// keys, key images).
  static Point MulCT(const U256& k, const Point& p);

  /// k * G, constant-time with respect to the digits of `k`: a fixed-base
  /// comb over a 64 × 8 static affine table (built on first use), one
  /// masked scan and one mixed addition per window, no doublings.
  static Point MulBaseCT(const U256& k);

  /// a*P + b*Q in one Straus pass over the GLV halves of both scalars
  /// (signature verification). Variable-time; public scalars only.
  static Point MulAdd(const U256& a, const Point& p, const U256& b,
                      const Point& q);

  /// Deterministic hash-to-point by try-and-increment on SHA-256 output.
  /// Never returns the identity. Domain-separated by `domain_tag`.
  static Point HashToPoint(const uint8_t* data, size_t size,
                           std::string_view domain_tag = "tokenmagic/htp");
};

}  // namespace tokenmagic::crypto
