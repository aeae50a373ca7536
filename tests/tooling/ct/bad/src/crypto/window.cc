// Window fixtures: a table lookup indexed by a scalar nibble, a nested
// digit-array subscript and the variable-time kernel inside a
// tm-ct-ladder body must each fire ladder-hygiene; a secret passed to the
// variable-time kernel outside a ladder must fire variable-time-op.
#include "crypto/types.h"

namespace tokenmagic::crypto {

// tm-ct-ladder
Point WindowFixture(const U256& scalar, const Point* table,
                    const uint8_t* digits) {
  uint64_t nibble = scalar.limbs[3] >> 60;
  Point acc = table[nibble];
  // tm-declassify(fixture window: fixed 64-window trip count is public)
  for (int w = 0; w < 64; ++w) {
    acc = Secp256k1::Add(acc, table[digits[w]]);
  }
  Point tail = WnafMul(digits, table);
  return Secp256k1::Add(acc, tail);
}

Point WnafFixture(common::Rng* rng, const Point* table) {
  // tm-secret
  U256 sk = RandomScalar(rng);
  Point p = WnafMul(sk, table);
  SecureWipe(sk.limbs.data(), sizeof(sk.limbs));
  return p;
}

}  // namespace tokenmagic::crypto
