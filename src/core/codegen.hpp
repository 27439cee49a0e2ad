// C++ code generation for decision-tree selectors.
//
// Section IV: "Decision trees can be implemented as a series of nested if
// statements and so are a good target for deployment." This module turns a
// fitted DecisionTreeSelector into exactly that — a self-contained C++
// function a library can compile in, with zero runtime dependencies on the
// ML stack.
#pragma once

#include <string>

#include "core/selector.hpp"

namespace aks::select {

/// Emits a C++ translation unit containing
///   namespace aks_generated {
///   KernelChoice select_gemm_kernel(double m, double k, double n);
///   }
/// where KernelChoice carries the five configuration parameters, indented
/// by two spaces per level. The emitted control flow replicates
/// `selector.tree()` exactly.
[[nodiscard]] std::string generate_selector_code(
    const DecisionTreeSelector& selector);

/// Interprets the same nested-if logic the generated code would execute —
/// used to property-test that codegen preserves tree semantics without
/// invoking a compiler.
[[nodiscard]] gemm::KernelConfig evaluate_generated_logic(
    const DecisionTreeSelector& selector, double m, double k, double n);

}  // namespace aks::select
