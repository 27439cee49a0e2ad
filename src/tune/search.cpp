#include "tune/search.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <map>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace aks::tune {

namespace {

/// Coordinate representation of a configuration: three tile indices into
/// {1,2,4,8} plus a work-group shape index.
struct Coords {
  std::array<int, 4> v = {0, 0, 0, 0};

  [[nodiscard]] bool operator<(const Coords& other) const {
    return v < other.v;
  }
};

constexpr std::array<int, 4> kCoordLimits = {4, 4, 4, 10};

Coords to_coords(const gemm::KernelConfig& config) {
  const auto& sizes = gemm::kTileSizes;
  auto tile_index = [&](int value) {
    return static_cast<int>(
        std::find(sizes.begin(), sizes.end(), value) - sizes.begin());
  };
  const auto& shapes = gemm::work_group_shapes();
  const auto wg = static_cast<int>(
      std::find(shapes.begin(), shapes.end(),
                std::make_pair(config.wg_rows, config.wg_cols)) -
      shapes.begin());
  return Coords{{tile_index(config.row_tile), tile_index(config.col_tile),
                 tile_index(config.acc_size), wg}};
}

gemm::KernelConfig to_config(const Coords& coords) {
  const auto& sizes = gemm::kTileSizes;
  const auto& shapes = gemm::work_group_shapes();
  gemm::KernelConfig config;
  config.row_tile = sizes[static_cast<std::size_t>(coords.v[0])];
  config.col_tile = sizes[static_cast<std::size_t>(coords.v[1])];
  config.acc_size = sizes[static_cast<std::size_t>(coords.v[2])];
  const auto& [rows, cols] = shapes[static_cast<std::size_t>(coords.v[3])];
  config.wg_rows = rows;
  config.wg_cols = cols;
  return config;
}

/// Memoises the objective and records the best-so-far trajectory.
class Evaluator {
 public:
  explicit Evaluator(const Objective& objective) : objective_(objective) {}

  double operator()(const Coords& coords) {
    const auto [it, inserted] = cache_.try_emplace(coords, 0.0);
    if (inserted) {
      it->second = objective_(to_config(coords));
      AKS_CHECK(std::isfinite(it->second),
                "objective returned a non-finite value");
      if (it->second < result_.best_value || result_.evaluations == 0) {
        result_.best_value = it->second;
        result_.best = to_config(coords);
      }
      ++result_.evaluations;
      result_.trajectory.push_back(result_.best_value);
    }
    return it->second;
  }

  [[nodiscard]] bool seen(const Coords& coords) const {
    return cache_.contains(coords);
  }
  [[nodiscard]] std::size_t distinct() const { return cache_.size(); }
  [[nodiscard]] SearchResult result() const { return result_; }

 private:
  const Objective& objective_;
  std::map<Coords, double> cache_;
  SearchResult result_{gemm::KernelConfig{}, std::numeric_limits<double>::max(),
                       0, {}};
};

Coords random_coords(common::Rng& rng) {
  Coords coords;
  for (std::size_t d = 0; d < 4; ++d) {
    coords.v[d] = static_cast<int>(
        rng.uniform_index(static_cast<std::size_t>(kCoordLimits[d])));
  }
  return coords;
}

/// A random single-coordinate step (clamped to the space).
Coords neighbour(const Coords& coords, common::Rng& rng) {
  Coords out = coords;
  for (int attempt = 0; attempt < 16; ++attempt) {
    const auto d = rng.uniform_index(4);
    const int step = rng.uniform() < 0.5 ? -1 : 1;
    const int moved = coords.v[d] + step;
    if (moved >= 0 && moved < kCoordLimits[d]) {
      out.v[d] = moved;
      return out;
    }
  }
  return out;  // stuck in a corner: return unchanged, caller handles
}

}  // namespace

SearchResult exhaustive_search(const Objective& objective) {
  Evaluator evaluate(objective);
  for (const auto& config : gemm::enumerate_configs()) {
    evaluate(to_coords(config));
  }
  return evaluate.result();
}

SearchResult random_search(const Objective& objective, std::size_t budget,
                           std::uint64_t seed) {
  AKS_CHECK(budget > 0, "random search needs a positive budget");
  Evaluator evaluate(objective);
  common::Rng rng(seed);
  std::size_t attempts = 0;
  while (evaluate.distinct() < budget &&
         evaluate.distinct() < gemm::enumerate_configs().size() &&
         attempts < budget * 50) {
    evaluate(random_coords(rng));
    ++attempts;
  }
  return evaluate.result();
}

SearchResult simulated_annealing(const Objective& objective,
                                 const AnnealingOptions& options) {
  AKS_CHECK(options.budget > 0, "annealing needs a positive budget");
  AKS_CHECK(options.cooling > 0.0 && options.cooling < 1.0,
            "cooling must be in (0,1)");
  AKS_CHECK(options.restarts >= 1, "need at least one start");
  Evaluator evaluate(objective);
  common::Rng rng(options.seed);

  const std::size_t per_start =
      std::max<std::size_t>(2, options.budget /
                                   static_cast<std::size_t>(options.restarts));
  for (int start = 0;
       start < options.restarts && evaluate.distinct() < options.budget;
       ++start) {
    Coords current = random_coords(rng);
    double current_value = evaluate(current);
    double temperature = options.initial_temperature * std::abs(current_value);
    if (temperature <= 0.0) temperature = 1e-12;

    for (std::size_t step = 0;
         step < per_start && evaluate.distinct() < options.budget; ++step) {
      const Coords candidate = neighbour(current, rng);
      const double value = evaluate(candidate);
      const double delta = value - current_value;
      if (delta <= 0.0 ||
          rng.uniform() < std::exp(-delta / std::max(temperature, 1e-300))) {
        current = candidate;
        current_value = value;
      }
      temperature *= options.cooling;
    }
  }
  return evaluate.result();
}

SearchResult evolutionary_search(const Objective& objective,
                                 const EvolutionOptions& options) {
  AKS_CHECK(options.budget > 0, "evolution needs a positive budget");
  AKS_CHECK(options.population >= 2, "population must be at least 2");
  AKS_CHECK(options.tournament >= 1, "tournament must be at least 1");
  Evaluator evaluate(objective);
  common::Rng rng(options.seed);

  struct Member {
    Coords coords;
    double value = 0.0;
  };
  std::vector<Member> population;
  for (int i = 0;
       i < options.population && evaluate.distinct() < options.budget; ++i) {
    Member member;
    member.coords = random_coords(rng);
    member.value = evaluate(member.coords);
    population.push_back(member);
  }

  auto tournament_pick = [&]() -> const Member& {
    const Member* best = &population[rng.uniform_index(population.size())];
    for (int i = 1; i < options.tournament; ++i) {
      const Member& candidate =
          population[rng.uniform_index(population.size())];
      if (candidate.value < best->value) best = &candidate;
    }
    return *best;
  };

  // Generation cap guards against a fully converged population producing
  // only already-evaluated children.
  std::size_t generations = 0;
  const std::size_t max_generations = options.budget * 50;
  while (evaluate.distinct() < options.budget &&
         generations++ < max_generations) {
    const Member& a = tournament_pick();
    const Member& b = tournament_pick();
    Member child;
    for (std::size_t d = 0; d < 4; ++d) {
      child.coords.v[d] = rng.uniform() < 0.5 ? a.coords.v[d] : b.coords.v[d];
      if (rng.uniform() < options.mutation_rate) {
        const int step = rng.uniform() < 0.5 ? -1 : 1;
        child.coords.v[d] = std::clamp(child.coords.v[d] + step, 0,
                                       kCoordLimits[d] - 1);
      }
    }
    child.value = evaluate(child.coords);
    // Steady state: replace the worst member if the child improves on it.
    auto worst = std::max_element(
        population.begin(), population.end(),
        [](const Member& x, const Member& y) { return x.value < y.value; });
    if (child.value < worst->value) *worst = child;
  }
  return evaluate.result();
}

}  // namespace aks::tune
