// Metric schema, outcome bookkeeping and the host fingerprint.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench.hpp"
#include "common/cpuid.hpp"
#include "ml/flat_forest.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  // The three workload-defined metrics (main_s, side_s, rate_per_s) carry
  // each workload's headline figures; perfbench/README.md maps them to the
  // flow's named quantities (collect_s, train_s, loao_s, predict_s, ...).
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower"},      {"peak_rss_mb", "MB", "lower"},
      {"ok_frac", "frac", "higher"},  {"main_s", "s", "lower"},
      {"side_s", "s", "lower"},       {"rate_per_s", "1/s", "higher"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      // trace: kernel execution into a TraceBuffer
      {"trace.capture_s", "s", "lower"},
      {"trace.events", "count", "lower"},
      {"trace.buffer_bytes", "B", "lower"},
      {"trace.cache_hit_rate", "frac", "higher"},
      // profiler: trace replay into a ProfileBuilder
      {"profiler.busy_s", "s", "lower"},
      // sim: trace replay into NmcSimulator plus its timing model
      {"sim.busy_s", "s", "lower"},
      {"sim.ns_per_event", "ns", "lower"},
      {"sim.cycles", "count", "lower"},
      {"sim.instructions", "count", "lower"},
      {"sim.l1_hits", "count", "higher"},
      {"sim.l1_misses", "count", "lower"},
      {"sim.dram_activations", "count", "lower"},
      // common: the work-stealing pool
      {"common.pool_busy_frac", "frac", "higher"},
      // napel: pipeline, LOAO and DSE orchestration
      {"napel.collect_retries", "count", "lower"},
      {"napel.collect_failed", "count", "lower"},
      {"napel.loao_fold_p50_s", "s", "lower"},
      {"napel.loao_fold_max_s", "s", "lower"},
      {"napel.loao_mape_perf_pct", "pct", "lower"},
      {"napel.loao_mape_energy_pct", "pct", "lower"},
      {"napel.features_s", "s", "lower"},
      {"napel.pareto_s", "s", "lower"},
      // ml: tuning, fitting, compiling and walking forests
      {"ml.tune_s", "s", "lower"},
      {"ml.fit_s", "s", "lower"},
      {"ml.bin_s", "s", "lower"},
      {"ml.compile_s", "s", "lower"},
      {"ml.tree_nodes", "count", "lower"},
      {"ml.infer_batch_s", "s", "lower"},
      {"ml.infer_rows_per_s", "1/s", "higher"},
      {"ml.infer_row_us", "us", "lower"},
      // verify: arena certification and bounds
      {"verify.certify_s", "s", "lower"},
      // serve: one request's parse, service and render, and the open loop
      {"serve.parse_us", "us", "lower"},
      {"serve.handle_p50_us", "us", "lower"},
      {"serve.handle_p99_us", "us", "lower"},
      {"serve.render_us", "us", "lower"},
      {"serve.gen_late_us", "us", "lower"},
      {"serve.queue_wait_us", "us", "lower"},
      {"serve.latency_p99_us", "us", "lower"},
      {"serve.batch_rows_mean", "count", "higher"},
      {"serve.samples", "count", "higher"},
      // the benchmark's own tracing
      {"bench.trace_overhead_pct", "pct", "lower"},
      {"bench.spans", "count", "lower"},
  };
  return specs;
}

void Outcome::check(bool ok, std::string_view what) {
  op(ok);
  if (!ok) {
    correct_ = false;
    std::cerr << "perfbench: output check failed: " << what << '\n';
  }
}

void Outcome::set(std::string name, double value) {
  for (auto& [n, v] : values_)
    if (n == name) {
      v = value;
      return;
    }
  values_.emplace_back(std::move(name), value);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank: the smallest value with at least p% of samples at or
  // below it.
  const double rank = p / 100.0 * static_cast<double>(v.size());
  std::size_t k = static_cast<std::size_t>(rank);
  if (static_cast<double>(k) < rank) ++k;
  return v[std::clamp<std::size_t>(k, 1, v.size()) - 1];
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

void reset_peak_rss() {
  // Hand memory freed earlier (set-up, previous passes) back to the OS
  // first, so the window measures live data rather than what the
  // allocator's per-thread arenas happened to retain.
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

std::string format(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string s(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(s.data(), s.size() + 1, fmt, ap2);
  va_end(ap2);
  return s;
}

std::string host_fingerprint_json() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);)
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos)
        cpu = line.substr(line.find_first_not_of(" \t", colon + 1));
      break;
    }
  std::string escaped;
  for (char c : cpu)
    if (c != '"' && c != '\\') escaped += c;

  cpu_set_t set;
  CPU_ZERO(&set);
  const int nproc =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;

  std::string simd = "[";
  for (napel::SimdLevel level : {napel::SimdLevel::kScalar,
                                 napel::SimdLevel::kPortable,
                                 napel::SimdLevel::kAvx2}) {
    if (!napel::ml::FlatForest::simd_kernel_available(level)) continue;
    if (simd.size() > 1) simd += ',';
    simd += format("\"%s\"", napel::simd_level_name(level));
  }
  simd += ']';

  return format(
      "{\"cpu\":\"%s\",\"simd_levels\":%s,\"simd_resolved\":\"%s\","
      "\"nproc\":%d,\"hardware_concurrency\":%u,\"compiler\":\"%s\","
      "\"build_type\":\"%s\"}",
      escaped.c_str(), simd.c_str(),
      napel::simd_level_name(napel::resolved_simd_level()), nproc,
      std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
      PERFBENCH_BUILD_TYPE);
}

}  // namespace perfbench
