#include "core/online.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "faults/injector.hpp"
#include "trace/trace.hpp"

namespace aks::select {

namespace {

std::uint64_t trial_key(const gemm::GemmShape& shape, std::size_t candidate,
                        int attempt) {
  return faults::mix_key(shape.m, shape.k, shape.n,
                         static_cast<std::uint64_t>(candidate),
                         static_cast<std::uint64_t>(attempt));
}

}  // namespace

OnlineTuner::OnlineTuner(std::vector<std::size_t> candidates, TimerFn timer,
                         TunerOptions options)
    : candidates_(std::move(candidates)),
      timer_(std::move(timer)),
      options_(options),
      health_(candidates_.size()) {
  AKS_CHECK(!candidates_.empty(), "online tuner needs candidates");
  AKS_CHECK(timer_ != nullptr, "online tuner needs a timer function");
  AKS_CHECK(options_.trial_attempts > 0, "trial_attempts must be positive");
  const auto num_configs = gemm::enumerate_configs().size();
  for (const std::size_t c : candidates_) {
    AKS_CHECK(c < num_configs, "candidate index " << c << " out of range");
  }
}

gemm::KernelConfig OnlineTuner::sweep(const gemm::GemmShape& shape) {
  sweeps_.fetch_add(1, std::memory_order_relaxed);

  // Snapshot quarantine state so the sweep runs unlocked; position 0 (the
  // fallback) is eligible by construction.
  std::vector<bool> eligible(candidates_.size(), true);
  {
    aks::MutexLock lock(mutex_);
    for (std::size_t i = 1; i < health_.size(); ++i) {
      eligible[i] = !health_[i].quarantined;
    }
  }

  trace::Span sweep_span;
  if (trace::enabled()) {
    sweep_span.arm("tuner.sweep",
                   {trace::arg("m", shape.m), trace::arg("k", shape.k),
                    trace::arg("n", shape.n),
                    trace::arg("candidates", candidates_.size())});
  }

  double best_time = std::numeric_limits<double>::infinity();
  std::size_t best = candidates_.front();
  bool any_valid = false;
  double sweep_seconds = 0.0;
  // failed[i]: candidate i produced no usable trial this sweep.
  std::vector<bool> failed(candidates_.size(), false);
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (!eligible[i]) continue;
    const std::size_t candidate = candidates_[i];
    trace::Span trial_span;
    if (trace::enabled()) {
      trial_span.arm("tuner.trial", {trace::arg("config", candidate)});
    }
    double candidate_best = std::numeric_limits<double>::infinity();
    for (int attempt = 0; attempt < options_.trial_attempts; ++attempt) {
      // Arm both the warm-up-trial and kernel-launch sites: the timer may
      // route through syclrt::Queue (host mode) or be pure host timing.
      faults::FaultScope scope(
          faults::site_bit(faults::Site::kWarmUpTrial) |
              faults::site_bit(faults::Site::kKernelLaunch),
          trial_key(shape, candidate, attempt));
      double t;
      try {
        t = timer_(gemm::enumerate_configs()[candidate], shape);
        if (const auto fault = faults::probe(faults::Site::kWarmUpTrial)) {
          switch (fault.kind) {
            case faults::FaultKind::kLaunchFailure:
              throw faults::LaunchFailure("injected warm-up launch failure");
            case faults::FaultKind::kHang:
              throw faults::DeadlineExceeded("injected warm-up hang");
            case faults::FaultKind::kTimingOutlier:
              t *= fault.magnitude;
              break;
            case faults::FaultKind::kTimingNan:
              t = std::numeric_limits<double>::quiet_NaN();
              break;
            default:
              break;
          }
        }
      } catch (const std::exception&) {
        trial_failures_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      if (!std::isfinite(t) || t <= 0.0) {
        trial_failures_.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      sweep_seconds += t;
      candidate_best = std::min(candidate_best, t);
      // Fault-free trials are deterministic; one valid sample settles the
      // candidate (and keeps the legacy one-timer-call-per-candidate
      // accounting intact when no plan is installed).
      if (!faults::plan_active()) break;
    }
    if (std::isfinite(candidate_best)) {
      any_valid = true;
      trial_span.annotate(trace::arg("best_seconds", candidate_best));
      if (candidate_best < best_time) {
        best_time = candidate_best;
        best = candidate;
      }
    } else {
      failed[i] = true;
      trial_span.annotate(trace::arg("outcome", "failed"));
    }
  }
  trial_seconds_.add(sweep_seconds);
  sweep_span.annotate(trace::arg("sweep_seconds", sweep_seconds));
  sweep_span.annotate(trace::arg("winner", best));
  if (!any_valid) {
    // Whole sweep failed: serve the guaranteed fallback instead of
    // throwing. Returning (not throwing) lets the serving layer cache it —
    // a fully-dead sweep for a shape is a plan property, so retrying
    // per-request would only re-pay the sweep.
    degraded_selects_.fetch_add(1, std::memory_order_relaxed);
    sweep_span.annotate(trace::arg("outcome", "degraded"));
  }

  if (options_.quarantine_threshold > 0) {
    aks::MutexLock lock(mutex_);
    for (std::size_t i = 1; i < candidates_.size(); ++i) {
      if (!eligible[i]) continue;
      auto& health = health_[i];
      if (failed[i]) {
        if (++health.consecutive_failures >= options_.quarantine_threshold) {
          health.quarantined = true;
          trace::instant("tuner.quarantine",
                         {trace::arg("config", candidates_[i])});
        }
      } else {
        health.consecutive_failures = 0;
      }
    }
  }
  return gemm::enumerate_configs()[best];
}

gemm::KernelConfig OnlineTuner::fallback_config() const {
  return gemm::enumerate_configs()[candidates_.front()];
}

std::vector<std::size_t> OnlineTuner::quarantined() const {
  aks::MutexLock lock(mutex_);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (health_[i].quarantined) out.push_back(candidates_[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool OnlineTuner::is_quarantined(std::size_t canonical_index) const {
  aks::MutexLock lock(mutex_);
  for (std::size_t i = 0; i < candidates_.size(); ++i) {
    if (candidates_[i] == canonical_index) return health_[i].quarantined;
  }
  return false;
}

}  // namespace aks::select
