// Winograd F(2x2, 3x3) and F(4x4, 3x3) through one lowering body.
//
// Both tile sizes run the same four submissions on the caller's queue:
//
//   1. filter transform U = G g G^T, packed [pos][c, f];
//   2. input transform  V = B^T d B, packed [pos][tile, c];
//   3. the (m+2)^2 multiplies M[pos] = V[pos] * U[pos] as ONE batched GEMM;
//   4. output transform Y = A^T M A, scattered into NHWC with edge guards.
//
// Steps 1, 2 and 4 are data-parallel kernels with one work-item per (c, f),
// (tile, c) and (tile, f) pair; work-groups hold consecutive channels, so
// every group reads and writes contiguous runs. A tile size contributes only
// its tile edge and its three per-tile transforms. Each output element sees
// the same arithmetic in the same order whatever the partition, the pool or
// deterministic replay, so results are bit-identical across all of them.
//
// F(2x2) keeps the fully unrolled float transforms of the header comment.
// F(4x4) (Lavin & Gray, "Fast Algorithms for Convolutional Neural
// Networks") evaluates the small matrix products below with double
// accumulation, for the numerical headroom its larger constants need:
//
//         | 4  0 -5  0  1  0 |        | 1/4    0     0   |
//         | 0 -4 -4  1  1  0 |        | -1/6 -1/6  -1/6  |
//   B^T = | 0  4 -4 -1  1  0 |    G = | -1/6  1/6  -1/6  |
//         | 0 -2 -1  2  1  0 |        | 1/24  1/12  1/6  |
//         | 0  2 -1 -2  1  0 |        | 1/24 -1/12  1/6  |
//         | 0  4  0 -5  0  1 |        |  0     0     1   |
//
//         | 1 1  1 1  1 0 |
//   A^T = | 0 1 -1 2 -2 0 |
//         | 0 1  1 4  4 0 |
//         | 0 1 -1 8 -8 1 |
#include "conv/winograd.hpp"

#include <algorithm>
#include <memory>

namespace aks::conv {

namespace {

/// Local widening cast for index arithmetic on validated dimensions.
constexpr std::size_t zu(int v) { return static_cast<std::size_t>(v); }

/// Work-items per work-group along the channel dimension of the transform
/// kernels (the whole dimension when it is narrower).
constexpr std::size_t kGroupChannels = 64;

/// F(2x2, 3x3): 4x4 input tiles, 2x2 output tiles.
struct F2 {
  static constexpr int kOut = 2;
  static constexpr int kIn = 4;

  /// U = G g G^T for one 3x3 filter.
  static void filter(const float (&g)[3][3], float (&u)[4][4]) {
    float t[4][3];  // G g
    for (int c = 0; c < 3; ++c) {
      t[0][c] = g[0][c];
      t[1][c] = 0.5f * (g[0][c] + g[1][c] + g[2][c]);
      t[2][c] = 0.5f * (g[0][c] - g[1][c] + g[2][c]);
      t[3][c] = g[2][c];
    }
    for (int r = 0; r < 4; ++r) {  // (G g) G^T
      u[r][0] = t[r][0];
      u[r][1] = 0.5f * (t[r][0] + t[r][1] + t[r][2]);
      u[r][2] = 0.5f * (t[r][0] - t[r][1] + t[r][2]);
      u[r][3] = t[r][2];
    }
  }

  /// V = B^T d B for one 4x4 input tile.
  static void input(const float (&d)[4][4], float (&v)[4][4]) {
    float t[4][4];  // B^T d
    for (int c = 0; c < 4; ++c) {
      t[0][c] = d[0][c] - d[2][c];
      t[1][c] = d[1][c] + d[2][c];
      t[2][c] = d[2][c] - d[1][c];
      t[3][c] = d[1][c] - d[3][c];
    }
    for (int r = 0; r < 4; ++r) {  // (B^T d) B
      v[r][0] = t[r][0] - t[r][2];
      v[r][1] = t[r][1] + t[r][2];
      v[r][2] = t[r][2] - t[r][1];
      v[r][3] = t[r][1] - t[r][3];
    }
  }

  /// Y = A^T m A for one 4x4 element-product tile.
  static void output(const float (&m)[4][4], float (&y)[2][2]) {
    float t[2][4];  // A^T m
    for (int c = 0; c < 4; ++c) {
      t[0][c] = m[0][c] + m[1][c] + m[2][c];
      t[1][c] = m[1][c] - m[2][c] - m[3][c];
    }
    for (int r = 0; r < 2; ++r) {  // (A^T m) A
      y[r][0] = t[r][0] + t[r][1] + t[r][2];
      y[r][1] = t[r][1] - t[r][2] - t[r][3];
    }
  }
};

constexpr double kBT[6][6] = {
    {4, 0, -5, 0, 1, 0},  {0, -4, -4, 1, 1, 0}, {0, 4, -4, -1, 1, 0},
    {0, -2, -1, 2, 1, 0}, {0, 2, -1, -2, 1, 0}, {0, 4, 0, -5, 0, 1},
};

constexpr double kG[6][3] = {
    {1.0 / 4, 0, 0},
    {-1.0 / 6, -1.0 / 6, -1.0 / 6},
    {-1.0 / 6, 1.0 / 6, -1.0 / 6},
    {1.0 / 24, 1.0 / 12, 1.0 / 6},
    {1.0 / 24, -1.0 / 12, 1.0 / 6},
    {0, 0, 1},
};

constexpr double kAT[4][6] = {
    {1, 1, 1, 1, 1, 0},
    {0, 1, -1, 2, -2, 0},
    {0, 1, 1, 4, 4, 0},
    {0, 1, -1, 8, -8, 1},
};

/// out = M * in, accumulated in double.
template <std::size_t R, std::size_t C, std::size_t C2>
void matmul_small(const double (&m)[R][C], const float (&in)[C][C2],
                  float (&out)[R][C2]) {
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t c2 = 0; c2 < C2; ++c2) {
      double acc = 0.0;
      for (std::size_t c = 0; c < C; ++c) acc += m[r][c] * in[c][c2];
      out[r][c2] = static_cast<float>(acc);
    }
  }
}

/// out = in * M^T, accumulated in double.
template <std::size_t R2, std::size_t C, std::size_t R>
void matmul_small_rt(const float (&in)[R2][C], const double (&m)[R][C],
                     float (&out)[R2][R]) {
  for (std::size_t r2 = 0; r2 < R2; ++r2) {
    for (std::size_t r = 0; r < R; ++r) {
      double acc = 0.0;
      for (std::size_t c = 0; c < C; ++c) acc += in[r2][c] * m[r][c];
      out[r2][r] = static_cast<float>(acc);
    }
  }
}

/// F(4x4, 3x3): 6x6 input tiles, 4x4 output tiles.
struct F4 {
  static constexpr int kOut = 4;
  static constexpr int kIn = 6;

  static void filter(const float (&g)[3][3], float (&u)[6][6]) {
    float gg[6][3];
    matmul_small(kG, g, gg);
    matmul_small_rt(gg, kG, u);
  }

  static void input(const float (&d)[6][6], float (&v)[6][6]) {
    float bd[6][6];
    matmul_small(kBT, d, bd);
    matmul_small_rt(bd, kBT, v);
  }

  static void output(const float (&m)[6][6], float (&y)[4][4]) {
    float am[4][6];
    matmul_small(kAT, m, am);
    matmul_small_rt(am, kAT, y);
  }
};

/// Output tiles of variant F along an output extent.
template <typename F>
std::size_t tiles_along(int extent) {
  return zu((extent + F::kOut - 1) / F::kOut);
}

template <typename F>
gemm::GemmShape tile_gemm_shape(const ConvShape& shape) {
  gemm::GemmShape out;
  out.m = zu(shape.batch) * tiles_along<F>(shape.out_height()) *
          tiles_along<F>(shape.out_width());
  out.k = zu(shape.in_channels);
  out.n = zu(shape.out_channels);
  return out;
}

/// ND-range of a transform kernel: `rows` x `channels` work-items, each
/// work-group one row and up to kGroupChannels consecutive channels.
syclrt::NdRange<2> transform_range(std::size_t rows, std::size_t channels) {
  return {syclrt::Range<2>(rows, channels),
          syclrt::Range<2>(1, std::min(channels, kGroupChannels))};
}

/// Runs F's lowering; conv2d has checked the shape and the sizes.
template <typename F>
void winograd_lowering(syclrt::Queue& queue, const gemm::KernelConfig& config,
                       std::span<const float> input,
                       std::span<const float> filter, std::span<float> output,
                       const ConvShape& shape, const GemmLaunchers& launchers) {
  constexpr std::size_t T = zu(F::kIn);
  constexpr std::size_t kPositions = T * T;
  const auto mm = tile_gemm_shape<F>(shape);
  const std::size_t tiles = mm.m;
  const std::size_t in_c = mm.k;
  const std::size_t out_c = mm.n;
  const int oh = shape.out_height();
  const int ow = shape.out_width();
  const std::size_t tiles_h = tiles_along<F>(oh);
  const std::size_t tiles_w = tiles_along<F>(ow);
  // Top-left input pixel of a tile, and the batch image it lies in.
  struct Origin {
    std::size_t n;
    int y;
    int x;
  };
  const auto origin = [&](std::size_t tile) {
    const std::size_t row = tile / tiles_w;
    return Origin{row / tiles_h, static_cast<int>(row % tiles_h) * F::kOut,
                  static_cast<int>(tile % tiles_w) * F::kOut};
  };

  // The planes are overwritten in full by the kernels that produce them.
  const std::size_t u_plane = in_c * out_c;
  const std::size_t v_plane = tiles * in_c;
  const std::size_t m_plane = tiles * out_c;
  const auto u = std::make_unique_for_overwrite<float[]>(kPositions * u_plane);
  const auto v = std::make_unique_for_overwrite<float[]>(kPositions * v_plane);
  const auto m = std::make_unique_for_overwrite<float[]>(kPositions * m_plane);

  queue.parallel_for(
      transform_range(in_c, out_c), [&](const syclrt::NdItem<2>& item) {
        if (!item.in_range()) return;
        const std::size_t c = item.get_global_id(0);
        const std::size_t f = item.get_global_id(1);
        float g[3][3];
        for (std::size_t k = 0; k < 9; ++k) {
          g[k / 3][k % 3] = filter[(k * in_c + c) * out_c + f];
        }
        float ut[T][T];
        F::filter(g, ut);
        for (std::size_t pos = 0; pos < kPositions; ++pos) {
          u[pos * u_plane + c * out_c + f] = ut[pos / T][pos % T];
        }
      });

  const auto in_w = zu(shape.in_width);
  queue.parallel_for(
      transform_range(tiles, in_c), [&](const syclrt::NdItem<2>& item) {
        if (!item.in_range()) return;
        const std::size_t tile = item.get_global_id(0);
        const std::size_t c = item.get_global_id(1);
        const Origin o = origin(tile);
        const std::size_t in_base = o.n * zu(shape.in_height) * in_w * in_c;
        float d[T][T];
        for (int dy = 0; dy < F::kIn; ++dy) {
          const int in_y = o.y + dy - shape.padding;
          for (int dx = 0; dx < F::kIn; ++dx) {
            const int in_x = o.x + dx - shape.padding;
            const bool inside = in_y >= 0 && in_y < shape.in_height &&
                                in_x >= 0 && in_x < shape.in_width;
            d[dy][dx] =
                inside ? input[in_base + (zu(in_y) * in_w + zu(in_x)) * in_c + c]
                       : 0.0f;
          }
        }
        float vt[T][T];
        F::input(d, vt);
        for (std::size_t pos = 0; pos < kPositions; ++pos) {
          v[pos * v_plane + tile * in_c + c] = vt[pos / T][pos % T];
        }
      });

  launchers.batched(queue, config, {v.get(), kPositions * v_plane},
                    {u.get(), kPositions * u_plane},
                    {m.get(), kPositions * m_plane}, mm, kPositions);

  queue.parallel_for(
      transform_range(tiles, out_c), [&](const syclrt::NdItem<2>& item) {
        if (!item.in_range()) return;
        const std::size_t tile = item.get_global_id(0);
        const std::size_t f = item.get_global_id(1);
        const Origin o = origin(tile);
        const std::size_t out_base = o.n * zu(oh) * zu(ow) * out_c;
        float mt[T][T];
        for (std::size_t pos = 0; pos < kPositions; ++pos) {
          mt[pos / T][pos % T] = m[pos * m_plane + tile * out_c + f];
        }
        float y[F::kOut][F::kOut];
        F::output(mt, y);
        for (int dy = 0; dy < F::kOut && o.y + dy < oh; ++dy) {
          for (int dx = 0; dx < F::kOut && o.x + dx < ow; ++dx) {
            output[out_base + (zu(o.y + dy) * zu(ow) + zu(o.x + dx)) * out_c +
                   f] = y[dy][dx];
          }
        }
      });
}

/// Winograd F(m x m, 3x3) needs a 3x3 stride-1 convolution.
bool winograd_applies(const ConvShape& shape) {
  return shape.kernel == 3 && shape.stride == 1;
}

}  // namespace

// One multiply per position of the kIn x kIn element product: 16 and 36.
const detail::LoweringRow detail::kWinogradF2Row = {
    Transform::kWinograd, zu(F2::kIn * F2::kIn), winograd_applies,
    tile_gemm_shape<F2>, winograd_lowering<F2>};
const detail::LoweringRow detail::kWinogradF4Row = {
    Transform::kWinograd4, zu(F4::kIn * F4::kIn), winograd_applies,
    tile_gemm_shape<F4>, winograd_lowering<F4>};

}  // namespace aks::conv
