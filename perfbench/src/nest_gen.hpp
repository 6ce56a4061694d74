// Seeded texpr loop nests for the deep_loops workload.
//
// Each nest is one texpr function shaped like a matmul, stencil or conv2d
// kernel, 2 to 6 loops deep. It fills two arrays from linear formulas,
// then accumulates x[e1] * w[e2] over its whole iteration box, where e1
// and e2 are affine in the loop indices. Because every term is a
// polynomial of degree at most two in the indices, the generator knows
// the return value in closed form (power sums over the box) without
// running anything: an oracle independent of the frontend, the compiler
// and the interpreter.
//
// Shape and depth fix the loop structure, the trip counts and so the
// instruction count; the seed picks the data constants, the row-pitch
// padding, the array offsets and the array placement. A new seed thus
// changes every fingerprint but not how much work the compiler does,
// which keeps seeds comparable.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class NestShape { kMatmul, kStencil, kConv2d };

const char* shape_name(NestShape shape);

inline constexpr int kMinNestDepth = 2;
inline constexpr int kMaxNestDepth = 6;

struct Nest {
  std::string name;
  NestShape shape = NestShape::kMatmul;
  int depth = 0;
  /// One texpr function `name(x, w)`.
  std::string source;
  /// Base addresses of x and w.
  std::vector<std::int64_t> args;
  /// The function's return value, from the closed form.
  std::int64_t expected = 0;
};

/// The nest of `shape` and `depth` (kMinNestDepth..kMaxNestDepth) drawn
/// from `seed`, named `name`.
Nest make_nest(NestShape shape, int depth, std::uint64_t seed,
               std::string name);

/// The texpr module text of `nests` (their sources, in order).
std::string module_source(const std::vector<Nest>& nests);

}  // namespace perfbench
