#include "conv/im2col.hpp"

#include "common/error.hpp"

namespace aks::conv {

namespace {

/// Local widening cast for index arithmetic on validated dimensions.
inline std::size_t zu(int v) { return static_cast<std::size_t>(v); }

gemm::GemmShape im2col_gemm_shape(const ConvShape& shape) {
  gemm::GemmShape out;
  out.m = zu(shape.batch) * zu(shape.out_height()) * zu(shape.out_width());
  out.k = zu(shape.kernel) * zu(shape.kernel) * zu(shape.in_channels);
  out.n = zu(shape.out_channels);
  return out;
}

void im2col_conv2d(syclrt::Queue& queue, const gemm::KernelConfig& config,
                   std::span<const float> input, std::span<const float> filter,
                   std::span<float> output, const ConvShape& shape,
                   const GemmLaunchers& launchers) {
  // The HWIO filter flattens directly to [kh*kw*in_c, out_c]; the NHWC
  // output flattens directly to [batch*oh*ow, out_c].
  launchers.flat(queue, config, im2col_transform(input, shape), filter,
                 output, im2col_gemm_shape(shape));
}

}  // namespace

const detail::LoweringRow detail::kIm2colRow = {
    Transform::kIm2col, 1, [](const ConvShape&) { return true; },
    im2col_gemm_shape, im2col_conv2d};

std::vector<float> im2col_transform(std::span<const float> input,
                                    const ConvShape& shape) {
  AKS_CHECK(input.size() == shape.input_size(), "input size mismatch");
  const auto gemm_shape = im2col_gemm_shape(shape);
  std::vector<float> patches(gemm_shape.m * gemm_shape.k, 0.0f);

  const int oh = shape.out_height();
  const int ow = shape.out_width();
  const auto in_c = static_cast<std::size_t>(shape.in_channels);
  const auto in_w = static_cast<std::size_t>(shape.in_width);
  const auto in_h = static_cast<std::size_t>(shape.in_height);

  std::size_t row = 0;
  for (int n = 0; n < shape.batch; ++n) {
    const std::size_t in_base = zu(n) * in_h * in_w * in_c;
    for (int y = 0; y < oh; ++y) {
      for (int x = 0; x < ow; ++x, ++row) {
        float* out_row = &patches[row * gemm_shape.k];
        for (int ky = 0; ky < shape.kernel; ++ky) {
          const int in_y = y * shape.stride + ky - shape.padding;
          if (in_y < 0 || in_y >= shape.in_height) continue;
          for (int kx = 0; kx < shape.kernel; ++kx) {
            const int in_x = x * shape.stride + kx - shape.padding;
            if (in_x < 0 || in_x >= shape.in_width) continue;
            const float* src =
                &input[in_base + (zu(in_y) * in_w + zu(in_x)) * in_c];
            float* dst =
                &out_row[(zu(ky) * zu(shape.kernel) + zu(kx)) * in_c];
            std::copy(src, src + in_c, dst);
          }
        }
      }
    }
  }
  return patches;
}

}  // namespace aks::conv
