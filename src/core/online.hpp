// Online (dynamic) kernel tuning — the strategy the paper's introduction
// attributes to ML frameworks: "doing trial runs the first time an input
// size is used and choosing the best for subsequent runs".
//
// The tuner holds a candidate configuration set (typically a pruned set).
// sweep() times every eligible candidate on a shape through the supplied
// timing function and returns the winner. The tuner has no memory of shapes:
// every call pays the full sweep. Remembering the winner "for subsequent
// runs" is the serving layer's job — serve::SelectionService caches one
// decision per shape, single-flights the first request, and warm-starts
// from a persistent store. This is the baseline a learned selector competes
// with: zero selection error asymptotically, but a warm-up cost of
// |candidates| trial runs per novel shape — exactly the trade-off
// bench/ablation_online_vs_learned measures.
//
// Degradation contract (see DESIGN.md "Fault model"): a trial that throws
// (launch failure, hang killed at the deadline) or returns a non-finite /
// non-positive time is *not* an error of sweep(). The trial is retried up
// to TunerOptions::trial_attempts; a candidate whose sweeps keep failing is
// quarantined after quarantine_threshold consecutive sweep-level failures
// and skipped from then on (so a kernel that cannot launch stops burning
// warm-up budget and can never win); and when every candidate of a sweep
// fails, sweep() returns the guaranteed fallback configuration — the first
// candidate, which is immune to quarantine — instead of throwing. sweep()
// never throws on a degraded zoo. Faults are drawn at Site::kWarmUpTrial /
// Site::kKernelLaunch (the trial arms both), keyed on (shape, candidate,
// attempt) so fault sequences replay bit-identically.
//
// Thread safety: sweep() may be called concurrently. The only shared state
// is candidate health, guarded by one mutex that is never held across the
// timer callback, so the callback may block or take its own locks. Racing
// sweeps of one shape each do the work and count it; the serving layer is
// what keeps a shape from being swept twice.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

#include "common/metrics.hpp"
#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "gemm/config.hpp"
#include "gemm/shape.hpp"

namespace aks::select {

struct TunerOptions {
  /// Consecutive failed sweeps (no valid trial for the candidate in a
  /// sweep) before a candidate is quarantined. 0 disables quarantine.
  std::size_t quarantine_threshold = 3;
  /// Trial attempts per candidate per sweep before the candidate counts as
  /// failed for that sweep.
  int trial_attempts = 2;
};

class OnlineTuner {
 public:
  /// Times one run of `config` on `shape`, returning seconds. May throw and
  /// may return garbage under fault injection; the tuner owns recovery.
  using TimerFn =
      std::function<double(const gemm::KernelConfig&, const gemm::GemmShape&)>;

  /// `candidates` are canonical configuration indices; `timer` is invoked
  /// up to trial_attempts times per eligible candidate on every sweep.
  /// The first candidate doubles as the guaranteed fallback: it is never
  /// quarantined and is served when a whole sweep fails.
  OnlineTuner(std::vector<std::size_t> candidates, TimerFn timer,
              TunerOptions options = {});

  /// Times every eligible candidate on `shape` and returns the fastest.
  /// Every call runs the full sweep; caching is SelectionService's job.
  /// Never throws on trial failures — degrades to the fallback config.
  [[nodiscard]] gemm::KernelConfig sweep(const gemm::GemmShape& shape);

  /// The canonical indices this tuner can answer with, in construction
  /// order (the first is the fallback).
  [[nodiscard]] const std::vector<std::size_t>& candidates() const {
    return candidates_;
  }

  /// The configuration served when every candidate of a sweep fails (the
  /// first candidate — always a valid, runnable member of the zoo).
  [[nodiscard]] gemm::KernelConfig fallback_config() const;

  /// Statistics for the warm-up-cost analysis.
  [[nodiscard]] std::size_t sweeps() const {
    return sweeps_.load(std::memory_order_relaxed);
  }
  /// Total seconds of trial runs across every sweep (as reported by the
  /// timer function).
  [[nodiscard]] double trial_seconds() const { return trial_seconds_.value(); }

  // -- Degradation telemetry.

  /// Canonical indices currently quarantined, ascending.
  [[nodiscard]] std::vector<std::size_t> quarantined() const;
  [[nodiscard]] bool is_quarantined(std::size_t canonical_index) const;
  /// Trials that failed (threw or returned an unusable time).
  [[nodiscard]] std::size_t trial_failures() const {
    return trial_failures_.load(std::memory_order_relaxed);
  }
  /// Sweeps in which every candidate failed and the fallback was served.
  [[nodiscard]] std::size_t degraded_selects() const {
    return degraded_selects_.load(std::memory_order_relaxed);
  }

 private:
  struct CandidateHealth {
    std::size_t consecutive_failures = 0;
    bool quarantined = false;
  };

  std::vector<std::size_t> candidates_;
  TimerFn timer_;
  TunerOptions options_;
  mutable aks::Mutex mutex_{"tuner.state"};
  /// Health per candidate (by position in candidates_).
  std::vector<CandidateHealth> health_ AKS_GUARDED_BY(mutex_);
  std::atomic<std::size_t> sweeps_{0};
  std::atomic<std::size_t> trial_failures_{0};
  std::atomic<std::size_t> degraded_selects_{0};
  common::Accumulator trial_seconds_;
};

}  // namespace aks::select
