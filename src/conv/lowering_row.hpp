// One row of the convolution lowering table, private to src/conv.
//
// conv2d.cpp lists the rows; im2col.cpp and winograd.cpp define them next
// to the code they run. lowerings() reports a row's tag, multiply count
// and GEMM shape for every shape it `applies` to; conv2d() calls `run`
// only on such a shape, with operand sizes already checked.
#pragma once

#include <span>

#include "conv/conv2d.hpp"

namespace aks::conv::detail {

struct LoweringRow {
  Transform transform;
  std::size_t multiplies;
  bool (*applies)(const ConvShape&);
  gemm::GemmShape (*gemm_shape)(const ConvShape&);
  void (*run)(syclrt::Queue&, const gemm::KernelConfig&,
              std::span<const float>, std::span<const float>,
              std::span<float>, const ConvShape&, const GemmLaunchers&);
};

}  // namespace aks::conv::detail
