// The process-wide fault injector: deterministic probes, scoped arming.
//
// Two pieces of state cooperate:
//
//  * an installed FaultPlan (process-global). Tests and tools install one
//    with ScopedFaultPlan; CI exports AKS_FAULT_PLAN and the first probe or
//    plan_active() call picks it up (aks_tune asks before any work, so a
//    malformed plan fails at start-up). No plan installed means every probe
//    is kNone and costs one relaxed atomic load.
//
//  * a thread-local FaultScope. Faults fire only inside a scope that arms
//    the probed site — arming is how a code path declares "I own recovery
//    for faults here". The hardened paths (benchmark_runner measurement
//    loops, OnlineTuner trials, SelectionService warm-ups) arm themselves;
//    everything else (correctness tests, raw kernel launches outside a
//    measurement) never sees an injected fault, so a fault plan can be
//    exported over an entire test suite without failing unhardened code.
//
// Determinism: each probe decision is a pure function of
// (plan seed, site, scope key, scope draw index). The scope key is supplied
// by the caller from stable identifiers — shape dimensions, config index,
// attempt number — never from thread ids or clocks, so the injected-fault
// sequence is bit-identical across runs and thread interleavings. That is
// what makes a CI failure replayable locally with one flag.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/error.hpp"
#include "faults/fault_plan.hpp"

namespace aks::faults {

/// Base of all injected-fault exceptions, itself a common::Error so
/// existing catch sites keep working.
class FaultError : public common::Error {
 public:
  using common::Error::Error;
};

/// The driver rejected the kernel launch.
class LaunchFailure : public FaultError {
 public:
  using FaultError::FaultError;
};

/// The launch hung and the watchdog killed it at the deadline.
class DeadlineExceeded : public FaultError {
 public:
  using FaultError::FaultError;
};

/// Installs `plan` as the process-global plan for the scope's lifetime and
/// restores the previous plan (or the environment plan) on destruction.
/// Installing FaultPlan::none() pins fault-free behaviour over any
/// environment plan. Not re-entrant across threads: install while the
/// pipeline is quiescent (test set-up, CLI start-up).
class ScopedFaultPlan {
 public:
  explicit ScopedFaultPlan(const FaultPlan& plan);
  ~ScopedFaultPlan();
  ScopedFaultPlan(const ScopedFaultPlan&) = delete;
  ScopedFaultPlan& operator=(const ScopedFaultPlan&) = delete;

 private:
  std::shared_ptr<const FaultPlan> previous_;
};

/// Site bitmask helpers for FaultScope.
[[nodiscard]] constexpr std::uint32_t site_bit(Site site) {
  return 1u << static_cast<std::uint32_t>(site);
}

/// Arms a set of sites on the current thread with a deterministic key.
/// Probes outside any scope, or for un-armed sites, never fire. Scopes
/// nest; the innermost one wins.
class FaultScope {
 public:
  FaultScope(std::uint32_t site_mask, std::uint64_t key);
  ~FaultScope();
  FaultScope(const FaultScope&) = delete;
  FaultScope& operator=(const FaultScope&) = delete;

  [[nodiscard]] std::uint64_t key() const { return key_; }
  [[nodiscard]] bool arms(Site site) const {
    return (mask_ & site_bit(site)) != 0;
  }
  /// Next draw index (monotonic within the scope).
  [[nodiscard]] std::uint32_t next_draw() { return draw_++; }

 private:
  std::uint32_t mask_;
  std::uint64_t key_;
  std::uint32_t draw_ = 0;
  FaultScope* previous_;
};

/// 64-bit mix for building scope keys from stable identifiers.
[[nodiscard]] std::uint64_t mix_key(std::uint64_t a, std::uint64_t b);
template <typename... Rest>
[[nodiscard]] std::uint64_t mix_key(std::uint64_t a, std::uint64_t b,
                                    Rest... rest) {
  return mix_key(mix_key(a, b), rest...);
}

/// True when a plan with any non-zero rate is installed (environment plan
/// included: the first call loads AKS_FAULT_PLAN, and throws common::Error
/// when it is malformed).
[[nodiscard]] bool plan_active();
/// True when the installed plan has a non-zero rate at `site`.
[[nodiscard]] bool plan_active(Site site);
/// Snapshot of the installed plan; nullptr when none (or all-zero).
[[nodiscard]] std::shared_ptr<const FaultPlan> current_plan();

/// Deterministic probe: the fault (or kNone) for the current scope's next
/// draw at `site`. Pure in (plan seed, site, scope key, draw index).
[[nodiscard]] Fault probe(Site site);

/// Queue hook: probes Site::kKernelLaunch and materialises the result —
/// throws LaunchFailure on a launch-failure fault; on a hang fault burns
/// the plan's hang_seconds (the watchdog deadline) and throws
/// DeadlineExceeded. No-op outside an armed scope.
void maybe_inject_launch_fault();

/// Lifetime counters (relaxed; for tests and operational logging).
[[nodiscard]] std::uint64_t probes_total();
[[nodiscard]] std::uint64_t faults_injected_total();

}  // namespace aks::faults
