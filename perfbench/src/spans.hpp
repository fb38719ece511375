// In-memory span recorder for the traced run (--trace 1). Spans are taken
// in the benchmark's own code, around its calls into each layer's public
// functions; the library itself is not instrumented. Each span carries a
// name, start and end (seconds since the log was created), the id of the
// span that caused it, and the recording thread. Spans stay in memory and
// are written out once, when the run ends.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = root
  const char* name = "";     ///< a string literal
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint32_t thread = 0;
  double seconds() const { return end_s - start_s; }
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }
  /// Turns recording on or off (spans already open keep their state).
  void set_enabled(bool on) { enabled_ = on; }

  /// Durations of every recorded span called `name`, in record order.
  std::vector<double> durations(std::string_view name) const;
  /// Sum of durations(name).
  double total_seconds(std::string_view name) const;
  std::size_t size() const;

  /// Writes every span as one JSON array.
  bool write_json(const std::string& path) const;

 private:
  friend class Span;
  std::uint32_t open();
  void close(SpanRecord rec);
  double now_s() const { return seconds_since(origin_); }

  bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::uint32_t next_id_ = 1;     // guarded by mu_
  std::vector<SpanRecord> done_;  // guarded by mu_
};

/// RAII span. The parent is the innermost span open on this thread, or an
/// explicit one for work handed to pool threads. Always measures its own
/// duration (seconds()); records only when the log is enabled.
class Span {
 public:
  Span(SpanLog& log, const char* name);
  Span(SpanLog& log, const char* name, std::uint32_t parent);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint32_t id() const { return rec_.id; }
  double seconds() const { return seconds_since(t0_); }

 private:
  SpanLog& log_;
  SpanRecord rec_;
  std::uint32_t saved_current_ = 0;
  Clock::time_point t0_;
};

/// Runs `pass(traced)` three times — recording off, on, off — and returns
/// the cost of recording: the traced wall time against the mean of the two
/// untraced ones, in percent. Bracketing the traced pass keeps warm-up and
/// drift from landing on one side. Recording is left on.
template <typename Pass>
double traced_with_overhead(SpanLog& spans, Pass&& pass) {
  const auto timed = [&](bool traced) {
    spans.set_enabled(traced);
    const auto t0 = Clock::now();
    pass(traced);
    return seconds_since(t0);
  };
  const double before = timed(false);
  const double traced = timed(true);
  const double plain = (before + timed(false)) / 2.0;
  spans.set_enabled(true);
  return (traced - plain) / plain * 100.0;
}

}  // namespace perfbench
