// Workload `explore`: with a model trained during set-up, profile the
// unseen test input of all 15 apps (the 3 extended apps were never
// trained on), predict each on the paper's system (Table 4's Pred.), then
// core::explore a dense DseGrid per app. Batched forest inference
// (predict_votes_batch) does most of the work here and nowhere else.
#include <algorithm>

#include "flow.hpp"
#include "spans.hpp"
#include "trace/trace_buffer.hpp"

namespace perfbench {

namespace core = napel::core;
namespace ml = napel::ml;
namespace workloads = napel::workloads;

namespace {

core::DseGrid dense_grid(const Config& cfg) {
  if (cfg.smoke) return core::DseGrid{};
  core::DseGrid g;
  g.n_pes = {8, 16, 24, 32, 48, 64, 96, 128};
  g.core_freq_ghz = {0.8, 0.9, 1.0, 1.1, 1.2, 1.25, 1.3, 1.4,
                     1.5, 1.6, 1.7, 1.8, 2.0, 2.2, 2.4};
  g.cache_lines = {2, 4, 8, 16, 32, 64};
  g.cache_line_bytes = {16, 32, 64, 128, 256};
  g.dram_layers = {2, 4, 8, 16};
  return g;
}

workloads::WorkloadParams test_input(const workloads::Workload& w,
                                     const Config& cfg) {
  return workloads::WorkloadParams::test_input(w.doe_space(
      cfg.smoke ? workloads::Scale::kTiny : workloads::Scale::kBench));
}

/// Every prediction lies inside the model's certified bounds (IPC and
/// power are clamped at 1e-6 and 0 after the bounds check).
bool within_bounds(const core::NapelModel& model, double ipc_mean,
                   double power_watts) {
  const ml::FlatForest::ValueBounds pb = model.power_bounds();
  return model.ipc_bounds().contains(ipc_mean) &&
         (pb.contains(power_watts) || (power_watts == 0.0 && pb.lo <= 0.0));
}

/// The EDP optimum is on the Pareto front. Candidates the model cannot
/// tell apart get identical (time, energy) predictions, and the front keeps
/// one of each such group, so the optimum counts as on the front when a
/// front point has exactly its time and energy.
bool optimum_on_front(const std::vector<core::DsePoint>& points) {
  const core::Prediction& best = points[core::best_edp_point(points)].pred;
  for (std::size_t i : core::pareto_front(points))
    if (points[i].pred.time_seconds == best.time_seconds &&
        points[i].pred.energy_joules == best.energy_joules)
      return true;
  return false;
}

struct PassTimes {
  double predict_s = 0.0;
  double dse_s = 0.0;
  std::size_t points = 0;
};

/// One untraced pass over the 15 unseen inputs.
PassTimes plain_pass(const Config& cfg, std::uint64_t seed,
                     const core::NapelModel& model,
                     const std::vector<napel::sim::ArchConfig>& candidates,
                     Outcome& out) {
  PassTimes t;
  for (const workloads::Workload* w : all_apps()) {
    const auto t0 = Clock::now();
    const napel::profiler::Profile profile =
        core::profile_workload(*w, test_input(*w, cfg), seed);
    const core::Prediction pred =
        model.predict(profile, napel::sim::ArchConfig::paper_default());
    const auto t1 = Clock::now();
    const std::vector<core::DsePoint> points =
        core::explore(model, profile, candidates);
    const bool on_front = optimum_on_front(points);
    const auto t2 = Clock::now();
    t.predict_s += std::chrono::duration<double>(t1 - t0).count();
    t.dse_s += std::chrono::duration<double>(t2 - t1).count();
    t.points += points.size();

    std::size_t outside = 0;
    for (const core::DsePoint& p : points)
      outside += !within_bounds(model, p.ipc_interval.mean,
                                p.pred.power_watts);
    out.ops(points.size(), outside);
    out.op(within_bounds(model, pred.ipc, pred.power_watts));
    out.check(outside == 0, "every DSE prediction inside certified bounds");
    out.check(points.size() == candidates.size(), "one point per candidate");
    out.check(on_front, "EDP optimum on the Pareto front");
  }
  return t;
}

struct CaptureCounts {
  std::uint64_t events = 0;
  std::uint64_t buffer_bytes = 0;
};

/// The same pass spelled out through the layers: capture + profile replay,
/// predict, feature assembly, batched inference of both forests, then
/// core::explore and the Pareto step, one span per call.
CaptureCounts layer_pass(const Config& cfg, const core::NapelModel& model,
                         const std::vector<napel::sim::ArchConfig>& candidates,
                         SpanLog& spans, Outcome& out) {
  CaptureCounts counts;
  const std::size_t n = candidates.size();
  const std::size_t trees = model.ipc_flat().tree_count();
  std::vector<double> X, votes(n * trees), power(n);
  for (const workloads::Workload* w : all_apps()) {
    Span input(spans, "napel.unseen_input");
    napel::trace::TraceBuffer buf;
    {
      Span s(spans, "trace.capture");
      napel::trace::Tracer tracer;
      tracer.attach(buf);
      w->run(tracer, test_input(*w, cfg), cfg.seed);
    }
    counts.events += buf.event_count();
    counts.buffer_bytes += buf.memory_bytes();
    napel::profiler::Profile profile;
    {
      Span s(spans, "profiler.replay");
      napel::profiler::ProfileBuilder builder;
      buf.replay(builder);
      profile = builder.build();
    }
    {
      Span s(spans, "napel.predict");
      (void)model.predict(profile, napel::sim::ArchConfig::paper_default());
    }
    {
      Span s(spans, "napel.features");
      X.clear();
      X.reserve(n * core::model_feature_names().size());
      for (const napel::sim::ArchConfig& c : candidates) {
        const std::vector<double> f = core::model_features(profile, c);
        X.insert(X.end(), f.begin(), f.end());
      }
    }
    {
      Span s(spans, "ml.infer_batch");
      model.ipc_flat().predict_votes_batch(X, n, votes, 0);
      model.energy_flat().predict_batch(X, n, power, 0);
    }
    std::vector<core::DsePoint> points;
    {
      Span s(spans, "napel.explore");
      points = core::explore(model, profile, candidates);
    }
    bool on_front = false;
    {
      Span s(spans, "napel.pareto");
      on_front = optimum_on_front(points);
    }
    out.check(on_front, "EDP optimum on the Pareto front");
    bool same = points.size() == n;
    for (std::size_t i = 0; same && i < n; ++i) {
      const ml::RandomForest::Interval iv = ml::FlatForest::interval_from_trees(
          std::span<double>(votes.data() + i * trees, trees));
      same = iv.mean == points[i].ipc_interval.mean &&
             iv.lo == points[i].ipc_interval.lo &&
             iv.hi == points[i].ipc_interval.hi;
    }
    out.check(same, "batched votes reproduce core::explore's intervals");
  }
  return counts;
}

}  // namespace

void run_explore(const Config& cfg, SpanLog& spans, Outcome& out) {
  const auto t_setup = Clock::now();
  const TrainedFlow flow = collect_and_train(cfg);
  const std::vector<napel::sim::ArchConfig> candidates =
      core::enumerate_grid(dense_grid(cfg));
  const double setup_s = seconds_since(t_setup);

  if (cfg.trace) {
    std::vector<CaptureCounts> runs;
    const double overhead = traced_with_overhead(spans, [&](bool) {
      runs.push_back(layer_pass(cfg, flow.model, candidates, spans, out));
    });
    const CaptureCounts& counts = runs[1];  // the traced one
    out.check(std::all_of(runs.begin(), runs.end(),
                          [&](const CaptureCounts& c) {
                            return c.events == counts.events &&
                                   c.buffer_bytes == counts.buffer_bytes;
                          }),
              "captured event counts repeat exactly");

    const double infer_s = spans.total_seconds("ml.infer_batch");
    const double rows =
        static_cast<double>(candidates.size() * all_apps().size());
    out.set("trace.capture_s", spans.total_seconds("trace.capture"));
    out.set("trace.events", static_cast<double>(counts.events));
    out.set("trace.buffer_bytes", static_cast<double>(counts.buffer_bytes));
    out.set("profiler.busy_s", spans.total_seconds("profiler.replay"));
    out.set("napel.features_s", spans.total_seconds("napel.features"));
    out.set("napel.pareto_s", spans.total_seconds("napel.pareto"));
    out.set("ml.infer_batch_s", infer_s);
    out.set("ml.infer_rows_per_s", infer_s > 0.0 ? rows / infer_s : 0.0);
    out.set("ml.tree_nodes",
            static_cast<double>(flow.model.ipc_flat().node_count() +
                                flow.model.energy_flat().node_count()));
    out.set("bench.trace_overhead_pct", overhead);
    out.note(format("layer pass: %zu candidates x %zu apps",
                    candidates.size(), all_apps().size()));
    return;
  }

  std::vector<double> predict_s, dse_s, points_per_s;
  const Passes passes = repeat_passes(cfg, 9, [&](int pass) {
    const PassTimes t =
        plain_pass(cfg, pass_seed(cfg, pass), flow.model, candidates, out);
    predict_s.push_back(t.predict_s);
    dse_s.push_back(t.dse_s);
    points_per_s.push_back(static_cast<double>(t.points) / t.dse_s);
  });

  out.set("setup_s", setup_s);
  out.set("main_s", median(predict_s));
  out.set("side_s", median(dse_s));
  out.set("rate_per_s", median(points_per_s));
  out.note(format("predict_s %.4f s (main_s), dse %.4f s (side_s), "
                  "dse_points_per_s %.1f (rate_per_s), %zu candidates x "
                  "%zu apps, %d passes",
                  median(predict_s), median(dse_s), median(points_per_s),
                  candidates.size(), all_apps().size(), passes.count));
  out.set("peak_rss_mb", median(passes.peak_rss_mb));
}

}  // namespace perfbench
