// Shared types of the NAPEL flow benchmark: run configuration, the metric
// schema (mirrored by BENCHMARK.json at the repository root), and the
// outcome each workload fills in.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

class SpanLog;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  /// Minimum measured time: each workload repeats its pass until at least
  /// this much time has gone by (at least one pass, at most max_passes).
  double seconds = 10.0;
  bool trace = false;
  /// Tiny inputs everywhere: checks the wiring and the metric schema in
  /// seconds, measures nothing meaningful.
  bool smoke = false;
  std::string out_dir;  ///< spans and the host fingerprint go here
};

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  ///< "lower" or "higher"
};

/// Printed by every untraced run (--trace 0), whatever the workload.
const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed by every traced run (--trace 1). A workload that bypasses a
/// layer reports that layer's metrics as 0.
const std::vector<MetricSpec>& per_layer_metrics();

/// What one workload run produced: output checks, operation counts, and
/// metric values by name.
class Outcome {
 public:
  /// Records one attempted operation and whether it succeeded.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  void ops(std::uint64_t attempted, std::uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// An output check: counted as an attempted operation, and a failure
  /// marks the whole run incorrect.
  void check(bool ok, std::string_view what);
  void set(std::string name, double value);
  /// A human-readable result line, printed before the JSON summary.
  void note(std::string line) { notes_.push_back(std::move(line)); }

  bool correct() const { return correct_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double failed_frac() const {
    return attempted_ == 0 ? 1.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  const std::vector<std::pair<std::string, double>>& values() const {
    return values_;
  }
  const std::vector<std::string>& notes() const { return notes_; }

 private:
  bool correct_ = true;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> notes_;
};

// --- helpers shared by the workloads ---

/// Median of a copy of `v` (0 for an empty vector).
double median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100] (0 for an empty vector).
double percentile(std::vector<double> v, double p);
/// Peak resident set size since the last reset_peak_rss(), in MiB.
double peak_rss_mb();
/// Restarts the peak-RSS window at the current RSS (Linux clear_refs; where
/// that is unavailable the window is the process lifetime).
void reset_peak_rss();
/// One-line JSON object describing the measuring host: CPU model, the SIMD
/// forest kernels this process can run (common/cpuid), nproc, compiler and
/// CMake build type.
std::string host_fingerprint_json();
/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

struct Passes {
  int count = 0;
  std::vector<double> peak_rss_mb;  ///< per pass, set-up data included
};

/// Input seed of pass `pass`: the run's seed for the first pass, then
/// fresh ones, so each run's medians sample several inputs rather than
/// resting on one.
inline std::uint64_t pass_seed(const Config& cfg, int pass) {
  return cfg.seed + 7919 * static_cast<std::uint64_t>(pass);
}

/// Runs `pass(i)` until `cfg.seconds` have elapsed (at least once, at most
/// `max_passes` times), recording each pass's peak RSS.
template <typename Pass>
Passes repeat_passes(const Config& cfg, int max_passes, Pass&& pass) {
  const auto t0 = Clock::now();
  Passes p;
  do {
    reset_peak_rss();
    pass(p.count);
    p.peak_rss_mb.push_back(peak_rss_mb());
    ++p.count;
  } while (p.count < max_passes && seconds_since(t0) < cfg.seconds);
  return p;
}

// --- the workloads ---

/// Each fills `out` with the end-to-end metrics (cfg.trace == false) or
/// the per-layer metrics of the layers it loads (cfg.trace == true).
void run_collect(const Config& cfg, SpanLog& spans, Outcome& out);
void run_train(const Config& cfg, SpanLog& spans, Outcome& out);
void run_explore(const Config& cfg, SpanLog& spans, Outcome& out);
void run_serve(const Config& cfg, SpanLog& spans, Outcome& out);

}  // namespace perfbench
