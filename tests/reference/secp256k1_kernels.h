// Frozen textbook secp256k1 kernels (reference only).
//
// These are the original scalar-multiplication and field-exponentiation
// routines that src/crypto/ replaced with GLV + wNAF, a signed-digit
// window and a fixed-base comb: 256-step double-and-add, the binary
// Shamir loop with general additions, the 256-iteration Montgomery
// ladder, and Fermat inversion / square root by plain square-and-multiply.
// kernel_differential_test compares every production kernel against
// them, and bench_ablation_lsag times them as its oracle side (an LSAG
// sign/verify built from these kernels included). Do not optimize them:
// their value is that they stay the independent, obviously-correct
// formulation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "crypto/keys.h"
#include "crypto/lsag.h"
#include "crypto/secp256k1.h"
#include "crypto/u256.h"

namespace tokenmagic::reference {

/// a^(p - 2) by square-and-multiply over the exponent's bits.
crypto::U256 FermatFieldInv(const crypto::U256& a);

/// a^((p + 1) / 4) by square-and-multiply; true iff it squares back to a.
bool FermatFieldSqrt(const crypto::U256& a, crypto::U256* root);

/// k·p by left-to-right double-and-add over the bits of k.
crypto::Point DoubleAndAddMul(const crypto::U256& k, const crypto::Point& p);

/// a·p + b·q by the binary Shamir loop (one doubling per bit, one general
/// addition of p, q or p + q per set bit pair).
crypto::Point ShamirMulAdd(const crypto::U256& a, const crypto::Point& p,
                           const crypto::U256& b, const crypto::Point& q);

/// k·p by the 256-iteration Montgomery ladder with masked swaps.
crypto::Point LadderMul(const crypto::U256& k, const crypto::Point& p);

/// Try-and-increment hash-to-point with the Fermat square root; same
/// domain separation and output as crypto::Secp256k1::HashToPoint.
crypto::Point HashToPoint(const uint8_t* data, size_t size,
                          std::string_view domain_tag);

/// LSAG sign/verify built from the kernels above (ladder for the secret
/// multiples, Shamir for the ring walk): the same signature, byte for
/// byte, as crypto::Lsag for the same inputs and rng.
common::Result<crypto::LsagSignature> LsagSign(
    const std::vector<crypto::Point>& ring, size_t signer_index,
    const crypto::Keypair& signer, std::string_view message,
    common::Rng* rng);
bool LsagVerify(const crypto::LsagSignature& sig, std::string_view message);

}  // namespace tokenmagic::reference
