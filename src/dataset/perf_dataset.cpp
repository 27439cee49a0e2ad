#include "dataset/perf_dataset.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "gemm/config.hpp"

namespace aks::data {

PerfDataset::PerfDataset(std::vector<LoweredGemm> shapes, common::Matrix times)
    : shapes_(std::move(shapes)), times_(std::move(times)) {
  AKS_CHECK(times_.rows() == shapes_.size(),
            "times has " << times_.rows() << " rows for " << shapes_.size()
            << " shapes");
  AKS_CHECK(times_.cols() == gemm::enumerate_configs().size(),
            "times has " << times_.cols() << " columns, expected "
            << gemm::enumerate_configs().size());
  derive_from_times();
}

void PerfDataset::derive_from_times() {
  const std::size_t n = shapes_.size();
  features_.resize(n, 3);
  scores_.resize(n, times_.cols());
  for (std::size_t r = 0; r < n; ++r) {
    features_(r, 0) = static_cast<double>(shapes_[r].shape.m);
    features_(r, 1) = static_cast<double>(shapes_[r].shape.k);
    features_(r, 2) = static_cast<double>(shapes_[r].shape.n);
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t c = 0; c < times_.cols(); ++c) {
      AKS_CHECK(times_(r, c) > 0.0, "non-positive time at (" << r << "," << c << ")");
      best = std::min(best, times_(r, c));
    }
    for (std::size_t c = 0; c < times_.cols(); ++c) {
      scores_(r, c) = best / times_(r, c);
    }
  }
}

std::size_t PerfDataset::best_config(std::size_t row) const {
  return common::argmax(scores_.row(row));
}

double PerfDataset::gflops(std::size_t row, std::size_t config) const {
  AKS_CHECK(row < num_shapes() && config < num_configs(),
            "gflops index out of range");
  return shapes_[row].shape.flops() / times_(row, config) * 1e-9;
}

std::vector<std::size_t> PerfDataset::optimal_counts() const {
  std::vector<std::size_t> counts(num_configs(), 0);
  for (std::size_t r = 0; r < num_shapes(); ++r) ++counts[best_config(r)];
  return counts;
}

std::vector<double> PerfDataset::mean_scores() const {
  std::vector<double> means(num_configs());
  for (std::size_t c = 0; c < num_configs(); ++c) {
    double sum = 0.0;
    for (std::size_t r = 0; r < num_shapes(); ++r) sum += scores_(r, c);
    means[c] = sum / static_cast<double>(num_shapes());
  }
  return means;
}

double PerfDataset::best_restricted_score(
    std::size_t row, const std::vector<std::size_t>& allowed) const {
  AKS_CHECK(!allowed.empty(), "restricted score over empty config set");
  double best = 0.0;
  for (std::size_t c : allowed) {
    AKS_CHECK(c < num_configs(), "config index " << c << " out of range");
    best = std::max(best, scores_(row, c));
  }
  return best;
}

std::vector<std::size_t> PerfDataset::rows_of_network(
    const std::string& network) const {
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < num_shapes(); ++r) {
    if (shapes_[r].network == network) rows.push_back(r);
  }
  return rows;
}

std::vector<std::string> PerfDataset::networks() const {
  std::vector<std::string> names;
  for (const auto& shape : shapes_) {
    if (std::find(names.begin(), names.end(), shape.network) == names.end()) {
      names.push_back(shape.network);
    }
  }
  return names;
}

PerfDataset PerfDataset::subset(const std::vector<std::size_t>& rows) const {
  std::vector<LoweredGemm> shapes;
  shapes.reserve(rows.size());
  for (std::size_t r : rows) {
    AKS_CHECK(r < num_shapes(), "row " << r << " out of range");
    shapes.push_back(shapes_[r]);
  }
  return PerfDataset(std::move(shapes), times_.select_rows(rows));
}

DatasetSplit PerfDataset::split(double train_fraction,
                                std::uint64_t seed) const {
  AKS_CHECK(train_fraction > 0.0 && train_fraction < 1.0,
            "train fraction must be in (0,1), got " << train_fraction);
  common::Rng rng(seed);
  auto perm = rng.permutation(num_shapes());
  const auto n_train = static_cast<std::size_t>(
      std::round(train_fraction * static_cast<double>(num_shapes())));
  AKS_CHECK(n_train > 0 && n_train < num_shapes(),
            "split leaves an empty partition");
  DatasetSplit out;
  out.train_rows.assign(perm.begin(),
                        perm.begin() + static_cast<std::ptrdiff_t>(n_train));
  out.test_rows.assign(perm.begin() + static_cast<std::ptrdiff_t>(n_train),
                       perm.end());
  std::sort(out.train_rows.begin(), out.train_rows.end());
  std::sort(out.test_rows.begin(), out.test_rows.end());
  out.train = subset(out.train_rows);
  out.test = subset(out.test_rows);
  return out;
}

void PerfDataset::save(const std::filesystem::path& path) const {
  common::CsvTable table;
  table.header = {"network", "layer", "transform", "batch", "m", "k", "n"};
  const auto& configs = gemm::enumerate_configs();
  for (const auto& config : configs) table.header.push_back(config.name());
  for (std::size_t r = 0; r < num_shapes(); ++r) {
    std::vector<std::string> row;
    row.reserve(table.header.size());
    const auto& s = shapes_[r];
    row.push_back(s.network);
    row.push_back(s.layer);
    row.push_back(to_string(s.transform));
    row.push_back(std::to_string(s.batch));
    row.push_back(std::to_string(s.shape.m));
    row.push_back(std::to_string(s.shape.k));
    row.push_back(std::to_string(s.shape.n));
    for (std::size_t c = 0; c < num_configs(); ++c) {
      // Kernel times are < 1 s; 17 fixed decimals keeps >= 12 significant
      // digits so a save/load round-trip is lossless for analysis purposes.
      row.push_back(common::format_fixed(times_(r, c), 17));
    }
    table.rows.push_back(std::move(row));
  }
  common::write_csv(path, table);
}

PerfDataset PerfDataset::load(const std::filesystem::path& path) {
  const auto table = common::read_csv(path);
  const std::size_t n_configs = gemm::enumerate_configs().size();
  AKS_CHECK(table.num_cols() == 7 + n_configs,
            "dataset file has " << table.num_cols() << " columns, expected "
            << 7 + n_configs);
  std::vector<LoweredGemm> shapes;
  common::Matrix times(table.num_rows(), n_configs);
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    const auto& row = table.rows[r];
    LoweredGemm item;
    item.network = row[0];
    item.layer = row[1];
    const std::string where = "dataset row " + std::to_string(r + 1);
    item.transform = conv::parse_transform(row[2], where);
    item.batch = common::parse_number<int>(row[3], where);
    item.shape.m = common::parse_number<std::size_t>(row[4], where);
    item.shape.k = common::parse_number<std::size_t>(row[5], where);
    item.shape.n = common::parse_number<std::size_t>(row[6], where);
    shapes.push_back(std::move(item));
    for (std::size_t c = 0; c < n_configs; ++c) {
      times(r, c) = common::parse_number<double>(row[7 + c], where);
    }
  }
  return PerfDataset(std::move(shapes), std::move(times));
}

}  // namespace aks::data
