#include "syclrt/queue.hpp"

#include <string>
#include <thread>

namespace aks::syclrt {

namespace detail {

void arm_launch_span(trace::Span& span, const char* name, std::size_t groups,
                     std::size_t items) {
  const trace::LaunchAnnotation::Info* info =
      trace::LaunchAnnotation::current();
  if (info != nullptr) {
    // Shape as one interned "MxKxN" string: kMaxArgs is 4 and config +
    // shape + dimensions already fill the begin payload. Interning takes
    // the session lock, which a multi-millisecond kernel launch can afford.
    const char* shape = "?";
    if (auto* session = trace::TraceSession::current()) {
      shape = session->intern(std::to_string(info->m) + "x" +
                              std::to_string(info->k) + "x" +
                              std::to_string(info->n));
    }
    span.arm(name, {trace::arg("config", info->config_index),
                    trace::arg("shape", shape), trace::arg("groups", groups),
                    trace::arg("items", items)});
  } else {
    span.arm(name,
             {trace::arg("groups", groups), trace::arg("items", items)});
  }
}

void finish_launch_span(trace::Span& span, double elapsed_seconds) {
  span.annotate(trace::arg("measured_seconds", elapsed_seconds));
  const trace::LaunchAnnotation::Info* info =
      trace::LaunchAnnotation::current();
  if (info != nullptr && info->has_prediction) {
    span.annotate(trace::arg("predicted_seconds", info->predicted_seconds));
  }
}

}  // namespace detail

Device Device::host() {
  Device d;
  d.name = "AKS host CPU";
  d.vendor = "aks";
  d.compute_units = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  d.max_work_group_size = 1024;
  d.local_memory_bytes = 64 * 1024;
  return d;
}

Queue::Queue(Device device, common::ThreadPool* pool)
    : device_(std::move(device)),
      pool_(pool != nullptr ? pool : &common::ThreadPool::global()) {}

}  // namespace aks::syclrt
