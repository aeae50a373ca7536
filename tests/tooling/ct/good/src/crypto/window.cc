// Window twins: the nibble selects its entry through a masked scan of the
// whole table (every subscript is the scan counter), and the
// variable-time kernel only ever sees public scalars.
#include "crypto/types.h"

namespace tokenmagic::crypto {

// tm-ct-ladder
Point WindowFixture(const U256& scalar, const Point* table) {
  uint64_t nibble = scalar.limbs[3] >> 60;
  Point acc = Point::Infinity();
  // tm-declassify(fixture window: fixed 16-entry scan is public)
  for (uint64_t j = 0; j < kTableSize; ++j) {
    uint64_t mask = 0 - CtEq(j, nibble);
    acc = MaskedSelect(mask, table[j], acc);
  }
  return acc;
}

Point WnafFixture(const U256& public_scalar, const Point* table) {
  return WnafMul(public_scalar, table);
}

}  // namespace tokenmagic::crypto
