#include "faults/injector.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"
#include "trace/trace.hpp"

namespace aks::faults {

namespace {

// Global plan slot. Guarded by a mutex on install; probes copy the
// shared_ptr under the same mutex — cheap next to the model evaluation or
// kernel run every probe sits beside. The bool flag keeps the common
// no-plan case to one relaxed atomic load with no locking at all.
aks::Mutex g_plan_mutex{"faults.plan"};
std::shared_ptr<const FaultPlan> g_plan AKS_GUARDED_BY(g_plan_mutex);
std::atomic<bool> g_plan_armed{false};            // any non-zero rate
std::atomic<bool> g_env_checked{false};

std::atomic<std::uint64_t> g_probes{0};
std::atomic<std::uint64_t> g_injected{0};

thread_local FaultScope* tl_scope = nullptr;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double to_unit(std::uint64_t h) {
  // 53 high bits -> [0, 1).
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

void set_plan_locked(std::shared_ptr<const FaultPlan> plan)
    AKS_REQUIRES(g_plan_mutex) {
  g_plan = std::move(plan);
  g_plan_armed.store(g_plan != nullptr && g_plan->any_active(),
                     std::memory_order_release);
}

// Loads AKS_FAULT_PLAN exactly once, the first time anyone asks while no
// plan is installed. A malformed spec fails loudly: silently running a CI
// fault job fault-free would be worse than crashing it.
void maybe_load_env_plan_locked() AKS_REQUIRES(g_plan_mutex) {
  if (g_env_checked.exchange(true)) return;
  // Plan installation happens while the pipeline is quiescent (header
  // contract), so the getenv cannot race a setenv.
  const char* spec = std::getenv("AKS_FAULT_PLAN");  // NOLINT(concurrency-mt-unsafe)
  if (spec == nullptr || *spec == '\0') return;
  set_plan_locked(std::make_shared<const FaultPlan>(FaultPlan::parse(spec)));
}

std::shared_ptr<const FaultPlan> snapshot_plan() {
  aks::MutexLock lock(g_plan_mutex);
  maybe_load_env_plan_locked();
  return g_plan;
}

}  // namespace

ScopedFaultPlan::ScopedFaultPlan(const FaultPlan& plan) {
  aks::MutexLock lock(g_plan_mutex);
  maybe_load_env_plan_locked();  // so we restore the env plan on exit
  previous_ = g_plan;
  set_plan_locked(std::make_shared<const FaultPlan>(plan));
}

ScopedFaultPlan::~ScopedFaultPlan() {
  aks::MutexLock lock(g_plan_mutex);
  set_plan_locked(std::move(previous_));
}

FaultScope::FaultScope(std::uint32_t site_mask, std::uint64_t key)
    : mask_(site_mask), key_(key), previous_(tl_scope) {
  tl_scope = this;
}

FaultScope::~FaultScope() { tl_scope = previous_; }

std::uint64_t mix_key(std::uint64_t a, std::uint64_t b) {
  return splitmix64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

bool plan_active() {
  if (g_plan_armed.load(std::memory_order_acquire)) return true;
  // Like probe(): the first question of the process loads AKS_FAULT_PLAN.
  if (g_env_checked.load(std::memory_order_acquire)) return false;
  (void)snapshot_plan();
  return g_plan_armed.load(std::memory_order_acquire);
}

bool plan_active(Site site) {
  if (!plan_active()) return false;
  const auto plan = snapshot_plan();
  return plan != nullptr && plan->active(site);
}

std::shared_ptr<const FaultPlan> current_plan() {
  const auto plan = snapshot_plan();
  return (plan != nullptr && plan->any_active()) ? plan : nullptr;
}

Fault probe(Site site) {
  if (!g_plan_armed.load(std::memory_order_acquire)) {
    // First probe of the process still has to look for an env plan.
    if (g_env_checked.load(std::memory_order_acquire)) return {};
    (void)snapshot_plan();
    if (!g_plan_armed.load(std::memory_order_acquire)) return {};
  }
  FaultScope* scope = tl_scope;
  if (scope == nullptr || !scope->arms(site)) return {};
  const auto plan = snapshot_plan();
  if (plan == nullptr) return {};
  const SiteRates& rates = plan->at(site);
  if (rates.total() <= 0.0) return {};

  g_probes.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t h = splitmix64(
      plan->seed ^ mix_key(static_cast<std::uint64_t>(site) + 1,
                           scope->key(), scope->next_draw()));
  const double u = to_unit(h);

  Fault fault;
  double edge = rates.launch_failure;
  if (u < edge) {
    fault.kind = FaultKind::kLaunchFailure;
  } else if (u < (edge += rates.hang)) {
    fault.kind = FaultKind::kHang;
    fault.magnitude = plan->hang_seconds;
  } else if (u < (edge += rates.timing_outlier)) {
    fault.kind = FaultKind::kTimingOutlier;
    // Log-uniform factor from an independent sub-stream of the same hash;
    // half the draws invert it so best-of-N reductions see impossibly fast
    // samples, not just slow ones.
    const std::uint64_t h2 = splitmix64(h);
    const double t = to_unit(h2);
    double factor = std::exp(std::log(plan->outlier_min_factor) +
                             t * (std::log(plan->outlier_max_factor) -
                                  std::log(plan->outlier_min_factor)));
    if ((h2 & 1) != 0) factor = 1.0 / factor;
    fault.magnitude = factor;
  } else if (u < (edge += rates.timing_nan)) {
    fault.kind = FaultKind::kTimingNan;
  } else if (u < (edge += rates.corrupt_row)) {
    fault.kind = FaultKind::kCorruptRow;
  } else if (u < (edge += rates.write_failure)) {
    fault.kind = FaultKind::kWriteFailure;
  } else if (u < edge + rates.torn_write) {
    fault.kind = FaultKind::kTornWrite;
    // Fraction of the record that reaches the file before the simulated
    // crash, from an independent sub-stream; always a strict prefix.
    fault.magnitude = to_unit(splitmix64(h));
  }
  if (fault) {
    g_injected.fetch_add(1, std::memory_order_relaxed);
    trace::instant("fault.injected", {trace::arg("site", to_string(site)),
                                      trace::arg("kind", to_string(fault.kind)),
                                      trace::arg("magnitude", fault.magnitude)});
  }
  return fault;
}

void maybe_inject_launch_fault() {
  const Fault fault = probe(Site::kKernelLaunch);
  if (!fault) return;
  if (fault.kind == FaultKind::kLaunchFailure) {
    throw LaunchFailure("injected fault: kernel launch failed");
  }
  if (fault.kind == FaultKind::kHang) {
    // The kernel hangs; the caller's watchdog gives up after the deadline,
    // so the wall-clock cost is real even though the hang is simulated.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(fault.magnitude));
    throw DeadlineExceeded("injected fault: launch hung past deadline");
  }
}

std::uint64_t probes_total() {
  return g_probes.load(std::memory_order_relaxed);
}

std::uint64_t faults_injected_total() {
  return g_injected.load(std::memory_order_relaxed);
}

}  // namespace aks::faults
