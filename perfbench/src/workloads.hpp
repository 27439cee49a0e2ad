// The four perfbench workloads. Each prepares its inputs from the run seed,
// times the user's set-up and the measured phase, checks the program's
// outputs and fills the report; a traced run adds the per-layer metrics.
#pragma once

#include "harness.hpp"

namespace perfbench {

void run_network_forward(const Options& options, Report& report);
void run_serve_hot(const Options& options, Report& report);
void run_serve_churn(const Options& options, Report& report);
void run_offline_ship(const Options& options, Report& report);

/// Client threads the workload runs (the program's own pool not counted).
[[nodiscard]] unsigned client_threads(const Options& options);

}  // namespace perfbench
