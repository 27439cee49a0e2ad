// Umbrella header: the whole AKS public API.
//
// Fine-grained includes are preferred inside this repo; downstream users
// who just want the workflow can include this one header.
#pragma once

// Substrates (bottom-up).
#include "common/csv.hpp"        // IWYU pragma: export
#include "common/error.hpp"      // IWYU pragma: export
#include "common/matrix.hpp"     // IWYU pragma: export
#include "common/rng.hpp"        // IWYU pragma: export
#include "common/stats.hpp"      // IWYU pragma: export
#include "faults/fault_plan.hpp" // IWYU pragma: export
#include "faults/injector.hpp"   // IWYU pragma: export
#include "syclrt/buffer.hpp"     // IWYU pragma: export
#include "syclrt/queue.hpp"      // IWYU pragma: export
#include "gemm/config.hpp"       // IWYU pragma: export
#include "gemm/reference.hpp"    // IWYU pragma: export
#include "gemm/registry.hpp"     // IWYU pragma: export
#include "conv/conv2d.hpp"       // IWYU pragma: export
#include "conv/direct.hpp"       // IWYU pragma: export
#include "perfmodel/cost_model.hpp"   // IWYU pragma: export
#include "perfmodel/device_spec.hpp"  // IWYU pragma: export
#include "dataset/benchmark_runner.hpp"  // IWYU pragma: export
#include "dataset/extract.hpp"   // IWYU pragma: export
#include "dataset/networks.hpp"  // IWYU pragma: export
#include "dataset/perf_dataset.hpp"  // IWYU pragma: export

// ML stack.
#include "ml/agglomerative.hpp"      // IWYU pragma: export
#include "ml/cluster_metrics.hpp"    // IWYU pragma: export
#include "ml/decision_tree.hpp"      // IWYU pragma: export
#include "ml/gradient_boosting.hpp"  // IWYU pragma: export
#include "ml/hdbscan.hpp"            // IWYU pragma: export
#include "ml/kmeans.hpp"             // IWYU pragma: export
#include "ml/knn.hpp"                // IWYU pragma: export
#include "ml/metrics.hpp"            // IWYU pragma: export
#include "ml/pca.hpp"                // IWYU pragma: export
#include "ml/random_forest.hpp"      // IWYU pragma: export
#include "ml/scaler.hpp"             // IWYU pragma: export
#include "ml/svm.hpp"                // IWYU pragma: export

// Search strategies.
#include "tune/extended_space.hpp"  // IWYU pragma: export
#include "tune/search.hpp"          // IWYU pragma: export

// The kernel-selection core.
#include "core/codegen.hpp"            // IWYU pragma: export
#include "core/conv_engine.hpp"        // IWYU pragma: export
#include "core/evaluation.hpp"         // IWYU pragma: export
#include "core/network_estimator.hpp"  // IWYU pragma: export
#include "core/online.hpp"             // IWYU pragma: export
#include "core/pipeline.hpp"           // IWYU pragma: export
#include "core/pruning.hpp"            // IWYU pragma: export
#include "core/selector.hpp"           // IWYU pragma: export
#include "core/serialize.hpp"          // IWYU pragma: export
