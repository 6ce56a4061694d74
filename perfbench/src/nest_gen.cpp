#include "nest_gen.hpp"

#include <sstream>
#include <utility>

#include "seeds.hpp"

namespace perfbench {
namespace {

/// One loop of a nest, outermost first: its trip count and its stride in
/// the x index (e1) and the w index (e2).
struct Loop {
  std::int64_t trips = 1;
  std::int64_t x_stride = 0;
  std::int64_t w_stride = 0;
};

/// The six loops of the deepest nest of `shape`; a nest of depth d keeps
/// the innermost d. `pad` widens the row pitch (a seeded immediate that
/// never changes the instruction count: pitches stay above 1).
std::vector<Loop> shape_loops(NestShape shape, std::int64_t pad) {
  switch (shape) {
    case NestShape::kMatmul: {
      // C[i][j] += A[i][k] * B[k][j], batched: A is I x KP, B is K x JP.
      const std::int64_t I = 3, J = 3, K = 4;
      const std::int64_t kp = K + pad, jp = J + 1 + pad;
      return {{2, 4 * I * kp, 0}, {2, 2 * I * kp, 0}, {2, I * kp, 0},
              {I, kp, 0},         {J, 0, 1},          {K, 1, jp}};
    }
    case NestShape::kStencil: {
      // out[y][x] += in[y][x + t] * coeff[step][t], over time steps.
      const std::int64_t Y = 3, X = 4, T = 3;
      const std::int64_t wp = X + T - 1 + pad;
      return {{2, 0, 4 * T}, {2, 0, 2 * T}, {2, 0, T},
              {Y, wp, 0},    {X, 1, 0},     {T, 1, 1}};
    }
    case NestShape::kConv2d: {
      // out[n][oc][oy][ox] += in[n][oy + ky][ox + kx] * k[oc][ky][kx].
      const std::int64_t OC = 2, OY = 3, OX = 3, KY = 2, KX = 2;
      const std::int64_t wp = OX + KX - 1 + pad, h = OY + KY - 1;
      return {{2, h * wp, 0}, {OC, 0, KY * KX}, {OY, wp, 0},
              {OX, 1, 0},     {KY, wp, KX},     {KX, 1, 1}};
    }
  }
  return {};
}

/// Sum over 0..n-1 of i, and of i^2.
std::int64_t power_sum1(std::int64_t n) { return n * (n - 1) / 2; }
std::int64_t power_sum2(std::int64_t n) {
  return (n - 1) * n * (2 * n - 1) / 6;
}

/// Sum over the iteration box of (ux . i + u0) * (vx . i + v0), expanded
/// into power sums per loop index.
std::int64_t box_sum(const std::vector<Loop>& loops,
                     const std::vector<std::int64_t>& u, std::int64_t u0,
                     const std::vector<std::int64_t>& v, std::int64_t v0) {
  std::int64_t box = 1;
  for (const Loop& loop : loops) {
    box *= loop.trips;
  }
  std::int64_t total = u0 * v0 * box;
  for (std::size_t l = 0; l < loops.size(); ++l) {
    const std::int64_t n = loops[l].trips;
    const std::int64_t sum_l = box / n * power_sum1(n);
    total += (u0 * v[l] + v0 * u[l]) * sum_l;
    for (std::size_t m = 0; m < loops.size(); ++m) {
      const std::int64_t nm = loops[m].trips;
      const std::int64_t sum_lm =
          l == m ? box / n * power_sum2(n)
                 : box / (n * nm) * power_sum1(n) * power_sum1(nm);
      total += u[l] * v[m] * sum_lm;
    }
  }
  return total;
}

/// Largest value of an index expression over the box, plus one.
std::int64_t extent(const std::vector<Loop>& loops, bool x_side,
                    std::int64_t offset) {
  std::int64_t top = offset;
  for (const Loop& loop : loops) {
    top += (x_side ? loop.x_stride : loop.w_stride) * (loop.trips - 1);
  }
  return top + 1;
}

}  // namespace

const char* shape_name(NestShape shape) {
  switch (shape) {
    case NestShape::kMatmul:
      return "matmul";
    case NestShape::kStencil:
      return "stencil";
    case NestShape::kConv2d:
      return "conv2d";
  }
  return "?";
}

Nest make_nest(NestShape shape, int depth, std::uint64_t seed,
               std::string name) {
  SeedStream rng(seed);
  const std::int64_t pad = rng.range(0, 3);
  std::vector<Loop> loops = shape_loops(shape, pad);
  loops.erase(loops.begin(), loops.end() - depth);

  // x[p] = p * xa + xb and w[q] = q * wa + wb fill the arrays; the body
  // reads them at affine offsets from the array bases.
  const std::int64_t xa = rng.range(1, 5), xb = rng.range(0, 9);
  const std::int64_t wa = rng.range(1, 5), wb = rng.range(0, 9);
  const std::int64_t x_off = rng.range(0, 7), w_off = rng.range(0, 7);
  const std::int64_t acc0 = rng.range(0, 99);
  const std::int64_t x_len = extent(loops, true, x_off);
  const std::int64_t w_len = extent(loops, false, w_off);

  Nest nest;
  nest.name = std::move(name);
  nest.shape = shape;
  nest.depth = depth;
  const std::int64_t x_base = rng.range(0, 31);
  nest.args = {x_base, x_base + x_len + rng.range(0, 15)};

  std::vector<std::int64_t> u, v;
  for (const Loop& loop : loops) {
    u.push_back(xa * loop.x_stride);
    v.push_back(wa * loop.w_stride);
  }
  nest.expected =
      acc0 + box_sum(loops, u, xa * x_off + xb, v, wa * w_off + wb);

  std::ostringstream src;
  src << "fn " << nest.name << "(x, w) {\n"
      << "  let p = 0;\n"
      << "  while (p < " << x_len << ") { x[p] = p * " << xa << " + " << xb
      << "; p = p + 1; }\n"
      << "  p = 0;\n"
      << "  while (p < " << w_len << ") { w[p] = p * " << wa << " + " << wb
      << "; p = p + 1; }\n"
      << "  let acc = " << acc0 << ";\n";
  for (int l = 0; l < depth; ++l) {
    src << "  let i" << l << " = 0;\n";
  }
  // Like a compiled kernel, each loop level adds its own term to the
  // running x and w offsets, so the innermost body stays short.
  for (int l = 0; l < depth; ++l) {
    if (loops[l].x_stride != 0) {
      src << "  let xo" << l << " = 0;\n";
    }
    if (loops[l].w_stride != 0) {
      src << "  let wo" << l << " = 0;\n";
    }
  }
  std::string x_at = std::to_string(x_off), w_at = std::to_string(w_off);
  std::string indent = "  ";
  for (int l = 0; l < depth; ++l) {
    if (l > 0) {
      src << indent << "i" << l << " = 0;\n";
    }
    src << indent << "while (i" << l << " < " << loops[l].trips << ") {\n";
    indent += "  ";
    for (const bool x_side : {true, false}) {
      const std::int64_t stride =
          x_side ? loops[l].x_stride : loops[l].w_stride;
      if (stride == 0) {
        continue;
      }
      std::string& at = x_side ? x_at : w_at;
      const std::string name = (x_side ? "xo" : "wo") + std::to_string(l);
      src << indent << name << " = " << at << " + i" << l;
      if (stride != 1) {
        src << " * " << stride;
      }
      src << ";\n";
      at = name;
    }
  }
  src << indent << "acc = acc + x[" << x_at << "] * w[" << w_at << "];\n";
  for (int l = depth - 1; l >= 0; --l) {
    src << indent << "i" << l << " = i" << l << " + 1;\n";
    indent.resize(indent.size() - 2);
    src << indent << "}\n";
  }
  src << "  return acc;\n}\n";
  nest.source = src.str();
  return nest;
}

std::string module_source(const std::vector<Nest>& nests) {
  std::string text;
  for (const Nest& nest : nests) {
    text += nest.source;
  }
  return text;
}

}  // namespace perfbench
