// Workload `collect`: the Table-4 DoE run. core::collect_training_data over
// the 12 paper apps at bench scale (CCD, 3 archs per configuration). Kernel
// execution, trace, profiler and simulator do all the work; ml does none.
#include <algorithm>
#include <cstring>

#include "common/parallel.hpp"
#include "flow.hpp"
#include "spans.hpp"
#include "trace/trace_buffer.hpp"

namespace perfbench {

namespace core = napel::core;
namespace workloads = napel::workloads;

namespace {

/// Lazy set-up the timed passes should not pay for: the thread pool's
/// first start and one tiny-scale collection of every app.
void warm_up() {
  core::CollectOptions tiny;
  tiny.scale = workloads::Scale::kTiny;
  std::vector<core::TrainingRow> rows;
  collect_paper_apps(tiny, rows);
}

/// One DoE task (input configuration) of a collected app: its rows, in
/// the pipeline's order, and the data seed the pipeline gave its kernel.
struct DoeTask {
  const workloads::Workload* app;
  std::uint64_t data_seed;
  const core::TrainingRow* rows;
  std::size_t n_rows;
};

std::vector<DoeTask> doe_tasks(const std::vector<core::TrainingRow>& rows,
                               const core::CollectOptions& opts) {
  std::vector<DoeTask> tasks;
  std::size_t i = 0;
  while (i < rows.size()) {
    const std::string& app = rows[i].app;
    std::uint64_t ci = 0;
    for (; i < rows.size() && rows[i].app == app;
         i += opts.archs_per_config, ++ci)
      tasks.push_back({&workloads::workload(app), opts.seed + ci, &rows[i],
                       opts.archs_per_config});
  }
  return tasks;
}

struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t buffer_bytes = 0;
  std::uint64_t sim_events = 0;
  std::uint64_t cycles = 0, instructions = 0, l1_hits = 0, l1_misses = 0,
                dram_activations = 0;
  bool rows_match = true;
};

/// Re-runs every DoE task through the layers' public functions — capture
/// into a TraceBuffer, replay into a ProfileBuilder and into one simulator
/// per architecture — with a span around each call. The rows it derives
/// must equal the pipeline's bit for bit.
LayerCounts layer_pass(const std::vector<DoeTask>& tasks, SpanLog& spans,
                       std::uint32_t parent) {
  std::vector<LayerCounts> per(tasks.size());
  napel::parallel_for(tasks.size(), 0, [&](std::size_t t) {
    const DoeTask& task = tasks[t];
    LayerCounts& c = per[t];
    Span doe(spans, "napel.doe_task", parent);
    napel::trace::TraceBuffer buf;
    {
      Span s(spans, "trace.capture");
      napel::trace::Tracer tracer;
      tracer.attach(buf);
      task.app->run(tracer, task.rows[0].params, task.data_seed);
    }
    c.events = buf.event_count();
    c.buffer_bytes = buf.memory_bytes();
    napel::profiler::Profile profile;
    {
      Span s(spans, "profiler.replay");
      napel::profiler::ProfileBuilder builder;
      buf.replay(builder);
      profile = builder.build();
    }
    for (std::size_t a = 0; a < task.n_rows; ++a) {
      const core::TrainingRow& row = task.rows[a];
      napel::sim::SimResult res;
      {
        Span s(spans, "sim.simulate");
        napel::sim::NmcSimulator sim(row.arch);
        buf.replay(sim);
        res = sim.result();
      }
      c.sim_events += buf.event_count();
      c.cycles += res.cycles;
      c.instructions += res.instructions;
      c.l1_hits += res.l1_hits;
      c.l1_misses += res.l1_misses;
      c.dram_activations += res.dram_activations;
      const std::vector<double> f = core::model_features(profile, row.arch);
      c.rows_match = c.rows_match && f.size() == row.features.size() &&
                     std::memcmp(f.data(), row.features.data(),
                                 f.size() * sizeof(double)) == 0 &&
                     res.ipc == row.ipc;
    }
  });
  LayerCounts total;
  for (const LayerCounts& c : per) {
    total.events += c.events;
    total.buffer_bytes += c.buffer_bytes;
    total.sim_events += c.sim_events;
    total.cycles += c.cycles;
    total.instructions += c.instructions;
    total.l1_hits += c.l1_hits;
    total.l1_misses += c.l1_misses;
    total.dram_activations += c.dram_activations;
    total.rows_match = total.rows_match && c.rows_match;
  }
  return total;
}

}  // namespace

void run_collect(const Config& cfg, SpanLog& spans, Outcome& out) {
  const core::CollectOptions opts = collect_options(cfg);

  std::vector<double> setups;
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    warm_up();
    setups.push_back(seconds_since(t0));
  }
  const std::size_t want_rows = expected_rows(opts);

  if (cfg.trace) {
    // The pipeline itself, for its own counters and the reference rows.
    std::vector<core::TrainingRow> rows;
    core::CollectStats sum;
    {
      Span all(spans, "napel.collect");
      for (const workloads::Workload* w : paper_apps()) {
        Span s(spans, "napel.collect_training_data");
        const core::CollectStats st = core::collect_training_data(*w, opts,
                                                                  rows);
        sum.n_retries += st.n_retries;
        sum.n_failed += st.n_failed;
        sum.n_cache_hits += st.n_cache_hits;
        sum.n_cache_misses += st.n_cache_misses;
      }
    }
    out.check(rows.size() == want_rows, "pipeline row count");
    const std::vector<DoeTask> tasks = doe_tasks(rows, opts);

    std::vector<LayerCounts> runs;
    const double overhead = traced_with_overhead(spans, [&](bool) {
      Span pass(spans, "bench.layer_pass");
      runs.push_back(layer_pass(tasks, spans, pass.id()));
    });
    const LayerCounts& counts = runs[1];  // the traced one
    bool repeat = true;
    for (const LayerCounts& c : runs)
      repeat = repeat && c.rows_match && c.events == counts.events &&
               c.buffer_bytes == counts.buffer_bytes &&
               c.cycles == counts.cycles &&
               c.instructions == counts.instructions &&
               c.l1_hits == counts.l1_hits &&
               c.l1_misses == counts.l1_misses &&
               c.dram_activations == counts.dram_activations;
    out.check(repeat,
              "layer passes reproduce the pipeline's rows bit for bit, and "
              "their counts repeat exactly");
    const double layer_s = spans.total_seconds("bench.layer_pass");

    const double threads = napel::ThreadPool::global().size();
    const double sim_s = spans.total_seconds("sim.simulate");
    out.set("trace.capture_s", spans.total_seconds("trace.capture"));
    out.set("trace.events", static_cast<double>(counts.events));
    out.set("trace.buffer_bytes", static_cast<double>(counts.buffer_bytes));
    out.set("trace.cache_hit_rate", sum.cache_hit_rate());
    out.set("profiler.busy_s", spans.total_seconds("profiler.replay"));
    out.set("sim.busy_s", sim_s);
    out.set("sim.ns_per_event",
            counts.sim_events == 0
                ? 0.0
                : sim_s * 1e9 / static_cast<double>(counts.sim_events));
    out.set("sim.cycles", static_cast<double>(counts.cycles));
    out.set("sim.instructions", static_cast<double>(counts.instructions));
    out.set("sim.l1_hits", static_cast<double>(counts.l1_hits));
    out.set("sim.l1_misses", static_cast<double>(counts.l1_misses));
    out.set("sim.dram_activations",
            static_cast<double>(counts.dram_activations));
    out.set("common.pool_busy_frac",
            spans.total_seconds("napel.doe_task") / (layer_s * threads));
    out.set("napel.collect_retries", static_cast<double>(sum.n_retries));
    out.set("napel.collect_failed", static_cast<double>(sum.n_failed));
    out.set("bench.trace_overhead_pct", overhead);
    out.note(format("layer pass: %.3f s traced, %zu tasks", layer_s,
                    tasks.size()));
    return;
  }

  std::vector<double> pass_s, slowest_app_s, rows_per_s;
  std::uint64_t first_digest = 0;
  const Passes passes = repeat_passes(cfg, 9, [&](int pass) {
    core::CollectOptions pass_opts = opts;
    pass_opts.seed = pass_seed(cfg, pass);
    std::vector<core::TrainingRow> rows;
    std::size_t dropped = 0, points = 0;
    double slowest = 0.0;
    const auto t0 = Clock::now();
    for (const workloads::Workload* w : paper_apps()) {
      const auto ta = Clock::now();
      const core::CollectStats st =
          core::collect_training_data(*w, pass_opts, rows);
      slowest = std::max(slowest, seconds_since(ta));
      dropped += st.n_failed;
      points += st.n_input_configs;
    }
    const double s = seconds_since(t0);
    pass_s.push_back(s);
    slowest_app_s.push_back(slowest);
    rows_per_s.push_back(static_cast<double>(rows.size()) / s);
    out.ops(points, dropped);

    out.check(rows.size() == want_rows, "row count = sum of CCD points x archs");
    out.check(labels_finite(rows), "finite labels");
    if (pass == 0) first_digest = rows_digest(rows);
  });

  out.set("setup_s", median(setups));
  out.set("main_s", median(pass_s));
  out.set("side_s", median(slowest_app_s));
  out.set("rate_per_s", median(rows_per_s));
  out.set("peak_rss_mb", median(passes.peak_rss_mb));
  out.note(format("collect_s %.4f s (main_s), slowest app %.4f s (side_s), "
                  "%.1f rows/s (rate_per_s), %zu rows, %d passes, "
                  "first pass's rows digest %016llx",
                  median(pass_s), median(slowest_app_s), median(rows_per_s),
                  want_rows, passes.count,
                  static_cast<unsigned long long>(first_digest)));
}

}  // namespace perfbench
