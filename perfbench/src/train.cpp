// Workload `train`: on rows collected during set-up, a tuned
// NapelModel::train with the bench grid, then an untuned random-forest
// leave-one-application-out over the 12 apps. ml fitting, compiling and
// certifying do all the work; the simulator does none.
#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/parallel.hpp"
#include "flow.hpp"
#include "spans.hpp"

namespace perfbench {

namespace core = napel::core;
namespace ml = napel::ml;

namespace {

std::string saved(const core::NapelModel& model) {
  std::ostringstream os;
  core::save_model(model, os);
  return os.str();
}

/// Checks a trained model: both arenas certify, and save -> load -> save
/// reproduces the same bytes.
void check_model(const core::NapelModel& model, Outcome& out) {
  bool certified = true;
  try {
    model.ipc_flat().certify();
    model.energy_flat().certify();
  } catch (const std::exception&) {
    certified = false;
  }
  out.check(certified, "both compiled forests certify");
  const std::string first = saved(model);
  std::istringstream is(first);
  out.check(saved(core::load_model(is)) == first,
            "save -> load -> save is byte-identical");
}

struct Mape {
  double perf_pct = 0.0;
  double energy_pct = 0.0;
};

Mape mean_mape(const std::vector<core::LoaoAppResult>& folds) {
  Mape m;
  for (const core::LoaoAppResult& f : folds) {
    m.perf_pct += f.perf_mre;
    m.energy_pct += f.energy_mre;
  }
  const double n = folds.empty() ? 1.0 : static_cast<double>(folds.size());
  m.perf_pct *= 100.0 / n;
  m.energy_pct *= 100.0 / n;
  return m;
}

core::LoaoOptions loao_options() {
  core::LoaoOptions lo;
  lo.tune_rf = false;
  return lo;
}

/// NapelModel::train spelled out through the ml and verify layers' public
/// functions, one span per call. Returns the model rebuilt from the two
/// fitted forests.
core::NapelModel layer_train(const std::vector<core::TrainingRow>& rows,
                             const core::NapelModel::Options& opts,
                             SpanLog& spans, double& bin_s,
                             std::size_t& nodes) {
  std::vector<ml::RandomForest> forests;
  for (core::Target target : {core::Target::kIpc, core::Target::kPowerWatts}) {
    ml::Dataset data = [&] {
      Span s(spans, "napel.assemble_dataset");
      return core::assemble_dataset(rows, target);
    }();
    ml::RandomForestParams params = opts.untuned_params;
    params.seed = opts.seed;
    params.n_threads = opts.n_threads;
    params.split_mode = opts.split_mode;
    if (opts.tune && data.size() >= opts.k_folds) {
      Span s(spans, "ml.tune");
      params = ml::tune_random_forest(data, opts.grid, opts.k_folds,
                                      opts.seed, opts.n_threads, nullptr,
                                      opts.split_mode)
                   .best_params;
    }
    ml::RandomForest rf(params);
    {
      Span s(spans, "ml.fit");
      rf.fit(data);
    }
    bin_s += rf.last_fit_bin_seconds();
    const ml::FlatForest flat = [&] {
      Span s(spans, "ml.compile");
      return ml::FlatForest(rf);
    }();
    {
      Span s(spans, "verify.certify");
      flat.certify();
      (void)flat.value_bounds();
    }
    nodes += flat.node_count();
    forests.push_back(std::move(rf));
  }
  return core::NapelModel::from_forests(std::move(forests[0]),
                                        std::move(forests[1]));
}

/// The LOAO folds run one by one through NapelModel::train and
/// ml::evaluate, in parallel over the pool as leave_one_app_out runs them.
/// Returns each fold's IPC MRE.
std::vector<double> layer_loao(const std::vector<core::TrainingRow>& rows,
                               SpanLog& spans, std::uint32_t parent) {
  const core::LoaoOptions lo = loao_options();
  std::vector<std::string> apps;
  for (const core::TrainingRow& r : rows)
    if (std::find(apps.begin(), apps.end(), r.app) == apps.end())
      apps.push_back(r.app);
  std::vector<double> mre(apps.size());
  napel::parallel_for(apps.size(), lo.n_threads, [&](std::size_t a) {
    Span fold(spans, "napel.loao_fold", parent);
    std::vector<core::TrainingRow> train, test;
    for (const core::TrainingRow& r : rows)
      (r.app == apps[a] ? test : train).push_back(r);
    core::NapelModel::Options mo;
    mo.tune = lo.tune_rf;
    mo.grid = lo.grid;
    mo.k_folds = lo.k_folds;
    mo.seed = lo.seed;
    mo.n_threads = lo.n_threads;
    mo.split_mode = lo.split_mode;
    core::NapelModel model;
    model.train(train, mo);
    mre[a] = ml::evaluate(model.ipc_flat(),
                          core::assemble_dataset(test, core::Target::kIpc),
                          lo.n_threads)
                 .mre;
  });
  return mre;
}

void run_traced(const Config& cfg, const std::vector<core::TrainingRow>& rows,
                SpanLog& spans, Outcome& out) {
  const core::NapelModel::Options opts = model_options(cfg);
  core::NapelModel reference;
  reference.train(rows, opts);

  double bin_s = 0.0;
  std::size_t nodes = 0;
  std::vector<std::string> models;
  const double overhead = traced_with_overhead(spans, [&](bool traced) {
    Span s(spans, "napel.train");
    double b = 0.0;
    std::size_t n = 0;
    models.push_back(saved(layer_train(rows, opts, spans, b, n)));
    if (traced) {
      bin_s = b;
      nodes = n;
    }
  });
  const std::string want = saved(reference);
  out.check(std::all_of(models.begin(), models.end(),
                        [&](const std::string& m) { return m == want; }),
            "layer-by-layer training reproduces NapelModel::train");

  std::vector<core::LoaoAppResult> loao;
  {
    Span s(spans, "napel.leave_one_app_out");
    loao = core::leave_one_app_out(rows, core::ModelKind::kNapelRf,
                                   loao_options());
  }
  std::vector<double> fold_mre;
  {
    Span s(spans, "bench.loao_folds");
    fold_mre = layer_loao(rows, spans, s.id());
  }
  bool folds_match = fold_mre.size() == loao.size();
  for (std::size_t i = 0; folds_match && i < loao.size(); ++i)
    folds_match = fold_mre[i] == loao[i].perf_mre;
  out.check(folds_match, "fold-by-fold LOAO reproduces leave_one_app_out");

  const std::vector<double> folds = spans.durations("napel.loao_fold");
  const Mape mape = mean_mape(loao);
  out.set("ml.tune_s", spans.total_seconds("ml.tune"));
  out.set("ml.fit_s", spans.total_seconds("ml.fit"));
  out.set("ml.bin_s", bin_s);
  out.set("ml.compile_s", spans.total_seconds("ml.compile"));
  out.set("ml.tree_nodes", static_cast<double>(nodes));
  out.set("verify.certify_s", spans.total_seconds("verify.certify"));
  out.set("napel.loao_fold_p50_s", median(folds));
  out.set("napel.loao_fold_max_s",
          folds.empty() ? 0.0 : *std::max_element(folds.begin(), folds.end()));
  out.set("napel.loao_mape_perf_pct", mape.perf_pct);
  out.set("napel.loao_mape_energy_pct", mape.energy_pct);
  const double threads = napel::ThreadPool::global().size();
  const double loao_s = spans.total_seconds("bench.loao_folds");
  out.set("common.pool_busy_frac",
          spans.total_seconds("napel.loao_fold") / (loao_s * threads));
  out.set("bench.trace_overhead_pct", overhead);
  out.note(format("layer-by-layer train: %.3f s traced",
                  spans.total_seconds("napel.train")));
}

}  // namespace

void run_train(const Config& cfg, SpanLog& spans, Outcome& out) {
  const auto t_setup = Clock::now();
  std::vector<core::TrainingRow> rows = collect_rows(cfg);
  const double setup_s = seconds_since(t_setup);

  std::size_t n_apps = paper_apps().size();
  if (cfg.smoke) {
    // LOAO trains 100-tree folds whatever the scale; three apps keep the
    // smoke run short.
    n_apps = 3;
    std::vector<std::string> keep;
    for (std::size_t i = 0; i < n_apps; ++i)
      keep.emplace_back(paper_apps()[i]->name());
    std::erase_if(rows, [&](const core::TrainingRow& r) {
      return std::find(keep.begin(), keep.end(), r.app) == keep.end();
    });
  }

  if (cfg.trace) {
    run_traced(cfg, rows, spans, out);
    return;
  }

  const core::NapelModel::Options opts = model_options(cfg);
  std::vector<double> train_s, loao_s, rows_per_s;
  Mape first;
  const Passes passes = repeat_passes(cfg, 3, [&](int pass) {
    core::NapelModel model;
    const auto t0 = Clock::now();
    model.train(rows, opts);
    train_s.push_back(seconds_since(t0));
    rows_per_s.push_back(static_cast<double>(rows.size()) / train_s.back());
    out.op(model.is_trained());
    check_model(model, out);

    const auto t1 = Clock::now();
    const std::vector<core::LoaoAppResult> folds = core::leave_one_app_out(
        rows, core::ModelKind::kNapelRf, loao_options());
    loao_s.push_back(seconds_since(t1));
    out.ops(folds.size(), 0);
    const Mape m = mean_mape(folds);
    out.check(folds.size() == n_apps &&
                  std::isfinite(m.perf_pct) && std::isfinite(m.energy_pct),
              "one finite LOAO fold per app");
    if (pass == 0) first = m;
    out.check(m.perf_pct == first.perf_pct && m.energy_pct == first.energy_pct,
              "LOAO MAPEs identical across passes");
  });

  out.set("setup_s", setup_s);
  out.set("main_s", median(train_s));
  out.set("side_s", median(loao_s));
  out.set("rate_per_s", median(rows_per_s));
  out.set("peak_rss_mb", median(passes.peak_rss_mb));
  out.note(format("train_s %.4f s (main_s), loao_s %.4f s (side_s), "
                  "%.1f training rows/s (rate_per_s), %d passes",
                  median(train_s), median(loao_s), median(rows_per_s),
                  passes.count));
  out.note(format("loao_mape_perf_pct %.4f pct, loao_mape_energy_pct %.4f "
                  "pct, over %zu rows",
                  first.perf_pct, first.energy_pct, rows.size()));
}

}  // namespace perfbench
