#include "flow.hpp"

#include <cmath>
#include <stdexcept>

#include "doe/doe.hpp"

namespace perfbench {

namespace core = napel::core;
namespace workloads = napel::workloads;

std::vector<const workloads::Workload*> paper_apps() {
  const auto all = workloads::all_workloads();
  return {all.begin(), all.end()};
}

std::vector<const workloads::Workload*> all_apps() {
  std::vector<const workloads::Workload*> apps = paper_apps();
  for (const workloads::Workload* w : workloads::extended_workloads())
    apps.push_back(w);
  return apps;
}

core::CollectOptions collect_options(const Config& cfg) {
  core::CollectOptions o;
  o.scale = cfg.smoke ? workloads::Scale::kTiny : workloads::Scale::kBench;
  o.design = core::DesignKind::kCcd;
  o.archs_per_config = 3;
  o.seed = cfg.seed;
  return o;
}

core::NapelModel::Options model_options(const Config& cfg) {
  core::NapelModel::Options m;
  m.tune = true;
  m.grid.n_trees = {cfg.smoke ? 8u : 60u};
  m.grid.max_depth = {16, 24};
  m.grid.mtry_fraction = {1.0 / 3.0};
  m.grid.min_samples_leaf = {1, 2};
  m.k_folds = 3;
  m.untuned_params.n_trees = 60;
  return m;
}

std::size_t expected_rows(const core::CollectOptions& opts) {
  std::size_t n = 0;
  for (const workloads::Workload* w : paper_apps())
    n += napel::doe::central_composite(w->doe_space(opts.scale)).size() *
         opts.archs_per_config;
  return n;
}

std::size_t collect_paper_apps(const core::CollectOptions& opts,
                               std::vector<core::TrainingRow>& rows) {
  std::size_t dropped = 0;
  for (const workloads::Workload* w : paper_apps())
    dropped += core::collect_training_data(*w, opts, rows).n_failed;
  return dropped;
}

std::uint64_t rows_digest(const std::vector<core::TrainingRow>& rows) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV-1a
  const auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  };
  for (const core::TrainingRow& r : rows) {
    mix(r.app.data(), r.app.size());
    const std::string params = r.params.to_string();
    mix(params.data(), params.size());
    mix(r.features.data(), r.features.size() * sizeof(double));
    mix(&r.ipc, sizeof r.ipc);
    mix(&r.energy_pj_per_instr, sizeof r.energy_pj_per_instr);
    mix(&r.power_watts, sizeof r.power_watts);
    mix(&r.instructions, sizeof r.instructions);
  }
  return h;
}

bool labels_finite(const std::vector<core::TrainingRow>& rows) {
  for (const core::TrainingRow& r : rows)
    if (!std::isfinite(r.ipc) || r.ipc <= 0.0 ||
        !std::isfinite(r.energy_pj_per_instr) ||
        !std::isfinite(r.power_watts))
      return false;
  return true;
}

std::vector<core::TrainingRow> collect_rows(const Config& cfg) {
  const core::CollectOptions opts = collect_options(cfg);
  std::vector<core::TrainingRow> rows;
  if (collect_paper_apps(opts, rows) != 0 ||
      rows.size() != expected_rows(opts) || !labels_finite(rows))
    throw std::runtime_error("set-up collection is incomplete");
  return rows;
}

TrainedFlow collect_and_train(const Config& cfg) {
  TrainedFlow flow;
  flow.rows = collect_rows(cfg);
  core::NapelModel::Options untuned;
  untuned.tune = false;
  flow.model.train(flow.rows, untuned);
  return flow;
}

}  // namespace perfbench
