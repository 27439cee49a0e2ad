// network_forward: one client; one op runs every GEMM-lowerable layer of
// VGG-16, ResNet-50 and MobileNetV2 at batch 1, in that order, each on its
// own seeded input. Convolutions go through select::ConvEngine::run with the
// decision-tree selector loaded from its shipped file; fully connected
// layers go through gemm::launch_gemm with the selector's config. Kernels run
// on the program's default queue and pool, as shipped.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <set>

#include "conv/direct.hpp"
#include "core/conv_engine.hpp"
#include "core/network_estimator.hpp"
#include "core/pipeline.hpp"
#include "core/serialize.hpp"
#include "dataset/benchmark_runner.hpp"
#include "dataset/lowering.hpp"
#include "dataset/networks.hpp"
#include "gemm/reference.hpp"
#include "gemm/registry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Fresh set-ups timed per run; the median is setup_s.
constexpr int kSetups = 3;
/// Largest |engine - reference| accepted, relative to the reference's RMS.
constexpr double kTolerance = 1e-3;
/// Output channels of each convolution checked against direct_conv2d.
constexpr int kCheckedChannels = 2;

struct Layer {
  bool fc = false;
  aks::conv::ConvShape conv;
  aks::gemm::GemmShape gemm;
  std::vector<float> input;
  std::vector<float> weights;
  std::vector<float> output;
};

std::vector<Layer> layer_shapes() {
  std::vector<Layer> layers;
  for (const auto& network : aks::data::paper_networks()) {
    for (const auto& c : network.convs) {
      if (c.is_depthwise()) continue;  // no dense GEMM lowering
      Layer layer;
      layer.conv.batch = 1;
      layer.conv.in_height = c.in_height;
      layer.conv.in_width = c.in_width;
      layer.conv.in_channels = c.in_channels;
      layer.conv.out_channels = c.out_channels;
      layer.conv.kernel = c.kernel;
      layer.conv.stride = c.stride;
      layer.conv.padding = c.padding;
      layers.push_back(std::move(layer));
    }
    for (const auto& fc : network.fcs) {
      Layer layer;
      layer.fc = true;
      layer.gemm = aks::data::fc_shape(fc, 1);
      layers.push_back(std::move(layer));
    }
  }
  return layers;
}

/// What the user pays before the first op: load the shipped selector,
/// build the engine and the queue, fill the tensors.
struct Deployment {
  Deployment(const std::filesystem::path& selector_file,
             const std::vector<Layer>& shapes, std::uint64_t seed) {
    {
      aks::trace::Span span("core.load_selector_ms");
      selector = std::make_shared<const aks::select::DecisionTreeSelector>(
          aks::select::load_selector(selector_file));
    }
    engine = std::make_unique<aks::select::ConvEngine>(
        selector, aks::perf::CostModel(aks::perf::DeviceSpec::amd_r9_nano()));
    queue = std::make_unique<aks::syclrt::Queue>();
    layers = shapes;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      Layer& layer = layers[i];
      if (layer.fc) {
        layer.input.resize(layer.gemm.m * layer.gemm.k);
        layer.weights.resize(layer.gemm.k * layer.gemm.n);
        layer.output.assign(layer.gemm.m * layer.gemm.n, 0.0f);
      } else {
        layer.input.resize(layer.conv.input_size());
        layer.weights.resize(layer.conv.filter_size());
        layer.output.assign(layer.conv.output_size(), 0.0f);
      }
      fill_uniform(layer.input, mix(seed, 2 * i));
      fill_uniform(layer.weights, mix(seed, 2 * i + 1));
    }
  }

  std::shared_ptr<const aks::select::KernelSelector> selector;
  std::unique_ptr<aks::select::ConvEngine> engine;
  std::unique_ptr<aks::syclrt::Queue> queue;
  std::vector<Layer> layers;
};

/// One op. A traced round also times ConvEngine::plan on its own.
void run_round(Deployment& d, bool plan_apart) {
  for (Layer& layer : d.layers) {
    if (layer.fc) {
      const auto config = d.selector->select_config(layer.gemm);
      aks::trace::Span span("gemm.launch");
      (void)aks::gemm::launch_gemm(*d.queue, config, layer.input,
                                   layer.weights, layer.output, layer.gemm);
      continue;
    }
    if (plan_apart) {
      aks::trace::Span span("core.plan_us");
      (void)d.engine->plan(layer.conv);
    }
    aks::trace::Span span("conv.run");
    (void)d.engine->run(*d.queue, layer.input, layer.weights, layer.output,
                        layer.conv);
  }
}

/// Fills every output with NaN, so a round that leaves a layer unwritten
/// fails its check instead of passing on the previous round's results.
void poison_outputs(Deployment& d) {
  for (Layer& layer : d.layers) {
    std::fill(layer.output.begin(), layer.output.end(),
              std::numeric_limits<float>::quiet_NaN());
  }
}

std::uint64_t digest(const std::vector<float>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : values) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    h = (h ^ bits) * 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::uint64_t> digests(const Deployment& d) {
  std::vector<std::uint64_t> out;
  for (const Layer& layer : d.layers) out.push_back(digest(layer.output));
  return out;
}

/// Largest |engine - reference| over the checked outputs of one layer,
/// relative to the reference's RMS. A convolution is checked on
/// kCheckedChannels seeded output channels at every spatial position with
/// conv::direct_conv2d; a fully connected layer in full with
/// gemm::reference_gemm.
double layer_error(const Layer& layer, std::uint64_t seed) {
  std::vector<float> reference;
  std::vector<std::pair<std::size_t, std::size_t>> pairs;  // (engine, ref)
  if (layer.fc) {
    reference.resize(layer.output.size());
    aks::gemm::reference_gemm(layer.input, layer.weights, reference,
                              layer.gemm);
    for (std::size_t i = 0; i < reference.size(); ++i) pairs.push_back({i, i});
  } else {
    const auto& shape = layer.conv;
    const auto out_c = static_cast<std::size_t>(shape.out_channels);
    std::vector<std::size_t> channels;
    for (int j = 0; j < kCheckedChannels; ++j) {
      channels.push_back((mix(seed, static_cast<std::uint64_t>(j)) % out_c));
    }
    aks::conv::ConvShape sliced = shape;
    sliced.out_channels = kCheckedChannels;
    std::vector<float> filter(sliced.filter_size());
    const std::size_t taps = filter.size() / kCheckedChannels;
    for (std::size_t t = 0; t < taps; ++t) {
      for (std::size_t j = 0; j < channels.size(); ++j) {
        filter[t * kCheckedChannels + j] = layer.weights[t * out_c + channels[j]];
      }
    }
    reference.resize(sliced.output_size());
    aks::conv::direct_conv2d(layer.input, filter, reference, sliced);
    const std::size_t positions = reference.size() / kCheckedChannels;
    for (std::size_t p = 0; p < positions; ++p) {
      for (std::size_t j = 0; j < channels.size(); ++j) {
        pairs.push_back({p * out_c + channels[j], p * kCheckedChannels + j});
      }
    }
  }
  double square_sum = 0.0;
  double worst = 0.0;
  for (const auto& [e, r] : pairs) {
    const double ref = reference[r];
    square_sum += ref * ref;
    const double error = std::abs(static_cast<double>(layer.output[e]) - ref);
    worst = std::isnan(error) ? std::numeric_limits<double>::infinity()
                              : std::max(worst, error);
  }
  const double rms = std::sqrt(square_sum / static_cast<double>(pairs.size()));
  return worst / std::max(rms, 1e-12);
}

struct RoundProfile {
  double ms = 0.0;
  double kernel_seconds = 0.0;
  std::size_t submissions = 0;
  std::size_t groups = 0;
};

RoundProfile timed_round(Deployment& d, bool plan_apart) {
  const auto before = d.queue->profile();
  const auto start = Clock::now();
  run_round(d, plan_apart);
  RoundProfile round;
  round.ms = seconds_since(start) * 1e3;
  const auto after = d.queue->profile();
  round.kernel_seconds = after.total_seconds - before.total_seconds;
  round.submissions = after.submissions - before.submissions;
  round.groups = after.groups_launched - before.groups_launched;
  return round;
}

}  // namespace

void run_network_forward(const Options& options, Report& report) {
  // Benchmark-only preparation: train the selector the library ships (8
  // tree-pruned configs, decision tree) and write its file.
  const auto selector_file = options.run_dir / "selector.txt";
  {
    const auto dataset = aks::data::build_paper_dataset();
    const auto shipped = aks::select::run_pipeline(dataset, {});
    aks::select::save_selector(
        dynamic_cast<const aks::select::DecisionTreeSelector&>(
            *shipped.selector),
        selector_file);
  }
  const std::vector<Layer> shapes = layer_shapes();

  std::vector<double> setups;
  std::optional<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    const auto start = Clock::now();
    d.emplace(selector_file, shapes, options.seed);
    setups.push_back(seconds_since(start));
  }

  // Input properties, from the plans the engine makes (deterministic).
  std::set<aks::gemm::GemmShape> distinct;
  std::size_t im2col = 0, winograd2 = 0, winograd4 = 0, fcs = 0;
  double flop = 0.0, bytes = 0.0, tensor_bytes = 0.0;
  for (const Layer& layer : d->layers) {
    tensor_bytes += 4.0 * static_cast<double>(layer.input.size() +
                                              layer.weights.size() +
                                              layer.output.size());
    if (layer.fc) {
      ++fcs;
      distinct.insert(layer.gemm);
      flop += layer.gemm.flops();
      bytes += layer.gemm.min_bytes();
      continue;
    }
    const auto plan = d->engine->plan(layer.conv);
    distinct.insert(plan.gemm_shape);
    double multiplies = 1.0;
    switch (plan.transform) {
      case aks::data::Transform::kWinograd: ++winograd2; multiplies = 16.0; break;
      case aks::data::Transform::kWinograd4: ++winograd4; multiplies = 36.0; break;
      default: ++im2col; break;
    }
    flop += multiplies * plan.gemm_shape.flops();
    bytes += multiplies * plan.gemm_shape.min_bytes();
  }
  property("layers per round (conv + fc)", std::to_string(d->layers.size()));
  property("distinct GEMM shapes per round", std::to_string(distinct.size()));
  property("lowering split im2col/wino2/wino4/fc",
           std::to_string(im2col) + "/" + std::to_string(winograd2) + "/" +
               std::to_string(winograd4) + "/" + std::to_string(fcs));
  property("GFLOP per round (computed)", fixed(flop / 1e9, 3));
  property("GEMM compulsory MB per round (computed)", fixed(bytes / 1e6, 1));
  property("tensor working set MB", fixed(tensor_bytes / 1e6, 1));
  property("hit ratio", "n/a (the selector path has no cache)");

  // Round 1 is also the correctness round: checked against the references
  // after it ran, outside its timing. It runs no slower than later rounds
  // (measured), so it is an op sample like them. Every round starts from
  // poisoned outputs; poisoning and checks stay outside the measured time.
  const double measure = options.trace ? options.seconds / 2 : options.seconds;
  std::vector<double> round_ms;
  double checks_seconds = 0.0;
  std::vector<std::uint64_t> first;
  const auto phase_start = Clock::now();
  while (seconds_since(phase_start) - checks_seconds < measure) {
    auto check_start = Clock::now();
    poison_outputs(*d);
    checks_seconds += seconds_since(check_start);
    const RoundProfile round = timed_round(*d, false);
    round_ms.push_back(round.ms);
    check_start = Clock::now();
    if (first.empty()) {
      // The reference covers a slice of each convolution; the NaN scan
      // covers every output, so no element is left from the poison.
      double worst = 0.0;
      std::size_t unwritten = 0;
      for (std::size_t i = 0; i < d->layers.size(); ++i) {
        const Layer& layer = d->layers[i];
        worst = std::max(worst, layer_error(layer, mix(options.seed, 1000 + i)));
        unwritten += static_cast<std::size_t>(std::count_if(
            layer.output.begin(), layer.output.end(),
            [](float v) { return std::isnan(v); }));
      }
      report.op(worst <= kTolerance && unwritten == 0);
      std::cout << "reference check: worst error " << worst
                << " of the reference RMS (tolerance " << kTolerance << "), "
                << unwritten << " outputs left unwritten\n";
      first = digests(*d);
    } else {
      report.op(digests(*d) == first);
    }
    checks_seconds += seconds_since(check_start);
  }
  const double rss = peak_rss_mb();

  const aks::perf::CostModel model(aks::perf::DeviceSpec::amd_r9_nano());
  double optimal = 0.0;
  double engine = 0.0;
  for (const auto& network : aks::data::paper_networks()) {
    const auto estimate = aks::select::estimate_network(
        *d->engine, model, network, 1, aks::gemm::enumerate_configs().front());
    optimal += estimate.optimal_seconds;
    engine += estimate.engine_seconds;
  }
  const double op_ms = median(round_ms);

  if (!options.trace) {
    report.metrics_from(
        end_to_end_metrics(),
        {{"setup_s", median(setups)},
         {"op_ms", op_ms},
         {"ops_per_s", 1e3 / op_ms},
         {"quality_pct", 100.0 * optimal / engine},
         {"rss_mb", rss}});
    print_tail(round_ms, round_ms.size());
    std::cout << "rounds timed (ms):";
    for (const double ms : round_ms) std::cout << " " << fixed(ms, 1);
    std::cout << "\n";
    return;
  }

  d.reset();
  aks::trace::TraceOptions trace_options;
  trace_options.buffer_bytes_per_thread = ring_bytes(1 << 16);
  aks::trace::TraceSession session(trace_options);
  d.emplace(selector_file, shapes, options.seed);
  std::vector<RoundProfile> traced;
  double traced_checks_seconds = 0.0;
  const auto traced_start = Clock::now();
  while (seconds_since(traced_start) - traced_checks_seconds < measure) {
    auto check_start = Clock::now();
    poison_outputs(*d);
    traced_checks_seconds += seconds_since(check_start);
    traced.push_back(timed_round(*d, true));
    check_start = Clock::now();
    report.op(digests(*d) == first);
    traced_checks_seconds += seconds_since(check_start);
  }
  session.stop();
  const auto spans = group_spans(session.events());
  const auto dropped = session.stats().dropped;
  const std::string files = export_trace(session, options);

  // Per-round figures are means over the traced rounds, so the accounting
  // line adds up; trace.overhead_pct compares medians, like op_ms.
  const double rounds = static_cast<double>(traced.size());
  std::vector<double> traced_ms;
  double kernel_seconds = 0.0;
  for (const auto& round : traced) {
    traced_ms.push_back(round.ms);
    kernel_seconds += round.kernel_seconds;
  }
  const SpanGroup& plans = span_group(spans, "core.plan_us");
  const double plan_ms = plans.total_ns / rounds / 1e6;
  const double lowering_ms =
      (span_group(spans, "conv.run").self_ns - plans.total_ns) / rounds / 1e6;
  const double fc_ms = span_group(spans, "gemm.launch").self_ns / rounds / 1e6;
  const double kernel = kernel_seconds * 1e3 / rounds;
  double traced_op = 0.0;
  for (const double ms : traced_ms) traced_op += ms / rounds;
  std::cout << "accounting (traced, mean per round): op " << fixed(traced_op, 1)
            << " ms = syclrt.kernel " << fixed(kernel, 1)
            << " + conv.lowering " << fixed(lowering_ms, 1)
            << " + core.plan " << fixed(plan_ms, 3) << " + fc launch "
            << fixed(fc_ms, 3) << " + unaccounted "
            << fixed(traced_op - kernel - lowering_ms - plan_ms - fc_ms, 1)
            << " ms\n"
            << "gemm flops and bytes are computed from GemmShape::flops() and "
               "min_bytes(), not measured\n"
            << "trace files: " << files << ".{json,csv}\n";
  report.metrics_from(
      per_layer_metrics(),
      {{"core.plan_us", median(plans.ns) / 1e3},
       {"core.select_share_pct", 100.0 * plans.total_ns / (kernel_seconds * 1e9)},
       {"core.load_selector_ms",
        median(span_group(spans, "core.load_selector_ms").ns) / 1e6},
       {"syclrt.kernel_ms", kernel},
       {"syclrt.submissions", static_cast<double>(traced.front().submissions)},
       {"syclrt.groups", static_cast<double>(traced.front().groups)},
       {"gemm.gflops", flop / 1e9 / (kernel / 1e3)},
       {"gemm.gflop", flop / 1e9},
       {"gemm.mbytes", bytes / 1e6},
       {"conv.lowering_ms", lowering_ms},
       {"conv.winograd_layers", static_cast<double>(winograd2 + winograd4)},
       {"trace.overhead_pct", 100.0 * (median(traced_ms) / op_ms - 1.0)},
       {"trace.dropped", static_cast<double>(dropped)}});
}

}  // namespace perfbench
