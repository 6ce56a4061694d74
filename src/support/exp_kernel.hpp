// Branch-free double-precision exp with no libm call.
//
// The leakage model evaluates P_ref·exp(c·(T − T_ref)) for every register
// at every thermal-DFA transfer, so exp is on the analysis' hot path and
// its bits are the output's. glibc picks its exp per host when it loads
// (an FMA build on FMA hosts), which no cache key can see. This kernel is
// one fixed sequence of IEEE operations: built with -ffp-contract=off it
// gives the same bits on every host, scalar or vectorized at any width.
// Width-independence is what lets PowerModel::leakage_power run it in
// AVX-512, AVX2 and SSE2 clones of one loop: each lane is one argument,
// and no step reads another lane, rounds to a width-dependent type or
// calls out of the kernel, so every clone returns the scalar call's bits.
//
// Method: x = n·ln2/32 + r with n = 32k + j and |r| <= ln2/64, so
// exp(x) = 2^k · 2^(j/32) · exp(r).
//  - n comes from rounding x·32/ln2 by adding 1.5·2^52; its low bits are
//    then n in two's complement. The reduction subtracts n·ln2/32 in two
//    parts (Cody-Waite); the high part has 36 significant bits, so n·hi is
//    exact for every |n| < 2^17.
//  - 2^(j/32) is a 32-entry table of the nearest double and its relative
//    rounding error, so the table adds no rounding of its own.
//  - exp(r) − 1 is the degree-6 Taylor polynomial; its truncation error is
//    below 2^-57 relative.
//  - 2^k goes into the exponent field by integer addition, split into two
//    factors 2^floor(k/2) and 2^ceil(k/2) that stay normal for every
//    |x| <= 746, so overflow and underflow round like any product.
//
// Error: within 1 ULP of the exact value on normal results (tests hold it
// to that against expl; 6·10^7 arguments measured at most 0.56 ULP).
// A subnormal result is rounded twice and lands within one subnormal step.
// NaN gives NaN, +inf and x > 709.79 give +inf, −inf and x < −745.14 give
// 0, ±0 gives 1.
#pragma once

#include <bit>
#include <cstdint>

namespace tadfa {

namespace exp_detail {

/// 2^(j/32) = kExp2Hi[j] · (1 + kExp2Tail[j]), j = 0..31.
inline constexpr double kExp2Hi[32] = {
    0x1.0000000000000p+0, 0x1.059b0d3158574p+0, 0x1.0b5586cf9890fp+0,
    0x1.11301d0125b51p+0, 0x1.172b83c7d517bp+0, 0x1.1d4873168b9aap+0,
    0x1.2387a6e756238p+0, 0x1.29e9df51fdee1p+0, 0x1.306fe0a31b715p+0,
    0x1.371a7373aa9cbp+0, 0x1.3dea64c123422p+0, 0x1.44e086061892dp+0,
    0x1.4bfdad5362a27p+0, 0x1.5342b569d4f82p+0, 0x1.5ab07dd485429p+0,
    0x1.6247eb03a5585p+0, 0x1.6a09e667f3bcdp+0, 0x1.71f75e8ec5f74p+0,
    0x1.7a11473eb0187p+0, 0x1.82589994cce13p+0, 0x1.8ace5422aa0dbp+0,
    0x1.93737b0cdc5e5p+0, 0x1.9c49182a3f090p+0, 0x1.a5503b23e255dp+0,
    0x1.ae89f995ad3adp+0, 0x1.b7f76f2fb5e47p+0, 0x1.c199bdd85529cp+0,
    0x1.cb720dcef9069p+0, 0x1.d5818dcfba487p+0, 0x1.dfc97337b9b5fp+0,
    0x1.ea4afa2a490dap+0, 0x1.f50765b6e4540p+0,
};
inline constexpr double kExp2Tail[32] = {
    0x0.0p+0,               0x1.cd2523567f613p-55,  0x1.79aa65d837b6dp-54,
    -0x1.556522a2fbd0ep-54, -0x1.01b15eaa59348p-55, 0x1.aecf73e3a2f60p-54,
    0x1.68efde3a8a894p-54,  0x1.2f7e16d09ab31p-55,  0x1.34d754db0abb6p-55,
    -0x1.24aedcc4b5068p-54, 0x1.59f48a72a4c6dp-55,  0x1.363ed60c2ac11p-59,
    0x1.690cebb7aafb0p-56,  -0x1.8dec6bd0f385fp-56, 0x1.063e1e21c5409p-54,
    -0x1.c33c53bef4da8p-55, -0x1.3b3efbf5e2228p-54, -0x1.81f647e5a3ecfp-56,
    -0x1.b32dcb94da51dp-56, -0x1.369b6f13b3734p-54, 0x1.db72fc1f0eab4p-55,
    -0x1.da9b88b6c1e29p-58, 0x1.1affc2b91ce27p-56,  -0x1.1bbd1d3bcbb15p-54,
    0x1.c1a7792cb3387p-55,  -0x1.8d6f438ad9334p-57, 0x1.36eae30af0cb3p-56,
    0x1.76b2c6c921968p-57,  0x1.4a385a63d07a7p-56,  -0x1.2d52107b43e1fp-55,
    -0x1.ff7128fd391f0p-55, 0x1.a64a931d185eep-55,
};

inline constexpr double kInvLn2N = 0x1.71547652b82fep+5;  // 32/ln2
inline constexpr double kLn2HiN = 0x1.62e42fefa0000p-6;   // ln2/32, 36 bits
inline constexpr double kLn2LoN = 0x1.cf79abc9e3b3ap-45;  // ln2/32 − hi
inline constexpr double kShift = 0x1.8p52;
// exp(r) − 1 ≈ r + r²/2 + C3·r³ + C4·r⁴ + C5·r⁵ + C6·r⁶ (Taylor: 1/k!).
inline constexpr double kC3 = 0x1.5555555555555p-3;
inline constexpr double kC4 = 0x1.5555555555555p-5;
inline constexpr double kC5 = 0x1.1111111111111p-7;
inline constexpr double kC6 = 0x1.6c16c16c16c17p-10;
// exp(746) overflows and exp(−746) rounds to 0, so saturating |x| there
// keeps n and both scale factors in range without changing the result.
inline constexpr double kLimit = 746.0;
inline constexpr std::uint64_t kLimitBits =
    std::bit_cast<std::uint64_t>(kLimit);
inline constexpr std::uint64_t kSignBit = 0x8000000000000000ull;
inline constexpr std::uint64_t kExponentMask = 0xfff0000000000000ull;
inline constexpr std::uint64_t kOneBits = 0x3ff0000000000000ull;

}  // namespace exp_detail

/// exp(x) within 1 ULP (see the header comment), bit-reproducible.
inline double exp_kernel(double x) {
  using namespace exp_detail;
  // |x| > 746 becomes ±746; NaN fails the compare and passes through. The
  // saturated value is built from x's sign bit, not a literal, so no
  // compiler pass folds a constant path out of the loop and the select
  // stays vectorizable.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
  const std::uint64_t sign = bits & kSignBit;
  const double magnitude = std::bit_cast<double>(bits ^ sign);
  x = magnitude > kLimit ? std::bit_cast<double>(sign | kLimitBits) : x;
  const double z = x * kInvLn2N + kShift;
  const std::uint64_t ki = std::bit_cast<std::uint64_t>(z);
  const double n = z - kShift;
  const double r = (x - n * kLn2HiN) - n * kLn2LoN;
  const std::uint64_t j = ki & 31;
  const double r2 = r * r;
  const double poly = kExp2Tail[j] + r + r2 * (0.5 + r * kC3) +
                      r2 * r2 * (kC4 + r * kC5 + r2 * kC6);
  // k·2^52 and floor(k/2)·2^52 (mod 2^64): the exponent-field increments
  // of the two scale factors. The masks drop j's bits.
  const std::uint64_t k_all = (ki << 47) & kExponentMask;
  const std::uint64_t k_half = (ki << 46) & kExponentMask;
  const double s1 =
      std::bit_cast<double>(std::bit_cast<std::uint64_t>(kExp2Hi[j]) + k_half);
  const double s2 = std::bit_cast<double>(kOneBits + (k_all - k_half));
  return (s1 + s1 * poly) * s2;
}

}  // namespace tadfa
