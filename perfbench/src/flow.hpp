// Inputs every workload shares: the Table-4 collection options, the bench
// tuning grid, and the set-up steps that collect rows and train a model.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "napel/napel.hpp"

namespace perfbench {

/// The 12 applications of the paper's Table 2.
std::vector<const napel::workloads::Workload*> paper_apps();
/// The paper apps followed by the 3 extended apps, which no model here is
/// trained on.
std::vector<const napel::workloads::Workload*> all_apps();

/// Library-default collection options at Table-4 scale (CCD, 3 archs per
/// configuration), with the collection seed drawn from the run's seed.
napel::core::CollectOptions collect_options(const Config& cfg);
/// Tuned training with the benches' small grid (the full default grid
/// takes minutes); every other option is the library default.
napel::core::NapelModel::Options model_options(const Config& cfg);

/// Rows the Table-4 DoE yields: sum over apps of CCD points x archs.
std::size_t expected_rows(const napel::core::CollectOptions& opts);

/// Collects the 12 paper apps into `rows`; returns dropped DoE points.
std::size_t collect_paper_apps(const napel::core::CollectOptions& opts,
                               std::vector<napel::core::TrainingRow>& rows);

/// Order-sensitive digest of every row's app, input, features and labels.
std::uint64_t rows_digest(const std::vector<napel::core::TrainingRow>& rows);

/// True when every label is finite and the IPC is positive.
bool labels_finite(const std::vector<napel::core::TrainingRow>& rows);

/// Set-up step: the Table-4 collection, complete or an exception.
std::vector<napel::core::TrainingRow> collect_rows(const Config& cfg);

/// Set-up shared by explore and serve: collected rows plus a model with the
/// library's default untuned forests (100 trees each), which trains in a
/// fraction of the tuned model's time.
struct TrainedFlow {
  std::vector<napel::core::TrainingRow> rows;
  napel::core::NapelModel model;
};
TrainedFlow collect_and_train(const Config& cfg);

}  // namespace perfbench
