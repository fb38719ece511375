// Workload `serve`: serve::Server::run with default ServerOptions (one
// worker) behind an in-process transport. Phase 1 releases seeded
// single-row predict requests as an open loop at one fixed rate well below
// a worker's capacity, timing each from when it was due; such requests
// mostly arrive alone, so the batch kernel is bypassed. Phase 2 pre-queues
// rounds of the script (queue sized so nothing is shed, the worker's
// responses held until the round is queued), which forces full
// micro-batches, and times each round's drain.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/rng.hpp"
#include "flow.hpp"
#include "serve/server.hpp"
#include "spans.hpp"

namespace perfbench {

namespace core = napel::core;
namespace serve = napel::serve;

namespace {

constexpr double kRatePerS = 1000.0;
/// Requests per pre-queued drain round: a queued request holds its parsed
/// feature array, so a round is kept to tens of MB.
constexpr std::size_t kDrainRound = 1600;
constexpr std::size_t kDrainWindows = 10;  ///< per round

/// What serving starts from: a saved model and the JSON feature array of
/// every collected profile x architecture row.
struct ServeInputs {
  std::string model;
  std::vector<std::string> features;
};

/// Collects and trains in a child process and reads back its saved model
/// and the rows' feature arrays, so the server runs from a loaded model in
/// a heap that never held the training data, as a deployed one does. In
/// one process, what the training threads' allocator arenas kept moved the
/// serving peak RSS by up to half from run to run.
ServeInputs collect_and_train_in_child(const Config& cfg) {
  int fd[2];
  if (pipe(fd) != 0) throw std::runtime_error("pipe failed");
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fd[0]);
    int code = 0;
    try {
      TrainedFlow flow = collect_and_train(cfg);
      std::ostringstream os;
      core::save_model(flow.model, os);
      std::string msg = std::to_string(os.str().size()) + "\n" + os.str();
      for (const core::TrainingRow& r : flow.rows) {
        for (std::size_t k = 0; k < r.features.size(); ++k)
          msg += format(k == 0 ? "%.17g" : ",%.17g", r.features[k]);
        msg += '\n';
      }
      for (std::size_t at = 0; at < msg.size();) {
        const ssize_t w = write(fd[1], msg.data() + at, msg.size() - at);
        if (w < 0 && errno == EINTR) continue;
        if (w <= 0) throw std::runtime_error("write to parent failed");
        at += static_cast<std::size_t>(w);
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: serve set-up: " << e.what() << '\n';
      code = 1;
    }
    close(fd[1]);
    _exit(code);
  }
  close(fd[1]);
  std::string data;
  char buf[1 << 16];
  for (;;) {
    const ssize_t r = read(fd[0], buf, sizeof buf);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    data.append(buf, static_cast<std::size_t>(r));
  }
  close(fd[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("set-up child process failed");

  ServeInputs in;
  std::istringstream is(data);
  std::size_t model_bytes = 0;
  is >> model_bytes;
  is.ignore(1);
  in.model.resize(model_bytes);
  is.read(in.model.data(), static_cast<std::streamsize>(model_bytes));
  for (std::string line; std::getline(is, line);)
    in.features.push_back(std::move(line));
  if (!is.eof() || in.model.size() != model_bytes || in.features.empty())
    throw std::runtime_error("set-up child sent a truncated result");
  return in;
}

/// A request script: predict requests for feature rows drawn (seeded) from
/// the collected rows' JSON feature arrays; line(i) adds the request
/// framing.
class RequestScript {
 public:
  RequestScript(std::vector<std::string> features, std::size_t n,
                std::uint64_t seed)
      : features_(std::move(features)) {
    napel::Rng rng(seed ^ 0x5e77e5ULL);
    for (std::size_t i = 0; i < n; ++i)
      pick_.push_back(rng.uniform_index(features_.size()));
  }
  std::string line(std::size_t i) const {
    return "{\"op\":\"predict\",\"id\":\"r" + std::to_string(i) +
           "\",\"features\":[" + features_[pick_[i]] + "]}";
  }

 private:
  std::vector<std::string> features_;
  std::vector<std::size_t> pick_;
};

/// Line transport that releases lines [first, first + n) of a script on a
/// schedule: the k-th is due at start + k * period and is handed out no
/// earlier. With `hold`, every line is handed out at once and responses
/// written by other threads than the reader wait until the reader has seen
/// the end of input, so the whole round sits in the queue when the worker
/// starts draining it. Records when each line was due, when it was handed
/// out, and when each response was written.
class ScriptTransport final : public serve::Transport {
 public:
  ScriptTransport(const RequestScript& script, std::size_t first,
                  std::size_t n, double period_s, bool hold, SpanLog& spans)
      : script_(script),
        first_(first),
        n_(n),
        period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(period_s))),
        hold_(hold),
        spans_(spans) {
    due_.reserve(n);
    released_.reserve(n);
    written_.reserve(n);
    responses_.reserve(n);
  }

  bool read_line(std::string& line) override {
    const std::size_t i = due_.size();
    if (i == n_) {
      const std::lock_guard<std::mutex> lock(mu_);
      queued_ = Clock::now();
      all_read_ = true;
      all_read_cv_.notify_all();
      return false;
    }
    line = script_.line(first_ + i);
    if (i == 0) {
      start_ = Clock::now();
      reader_ = std::this_thread::get_id();
    }
    const Clock::time_point due = start_ + period_ * static_cast<long>(i);
    if (!hold_) {
      // Sleep to just short of the due time, then spin: the release stays
      // punctual whatever the timer slack.
      std::this_thread::sleep_until(due - std::chrono::microseconds(200));
      while (Clock::now() < due) {
      }
    }
    Span s(spans_, "serve.release");
    due_.push_back(due);
    released_.push_back(Clock::now());
    return true;
  }

  void write_line(std::string_view line) override {
    if (hold_ && std::this_thread::get_id() != reader_) {
      std::unique_lock<std::mutex> lock(mu_);
      all_read_cv_.wait(lock, [this] { return all_read_; });
    }
    written_.push_back(Clock::now());
    Span s(spans_, "serve.write");
    responses_.emplace_back(line);
  }

  Clock::time_point start() const { return start_; }
  /// When the reader saw the end of input (every line queued).
  Clock::time_point queued() const { return queued_; }
  const std::vector<Clock::time_point>& due() const { return due_; }
  const std::vector<Clock::time_point>& released() const { return released_; }
  const std::vector<Clock::time_point>& written() const { return written_; }
  const std::vector<std::string>& responses() const { return responses_; }

 private:
  const RequestScript& script_;
  const std::size_t first_, n_;
  const Clock::duration period_;
  const bool hold_;
  SpanLog& spans_;
  std::thread::id reader_;
  std::mutex mu_;
  std::condition_variable all_read_cv_;
  bool all_read_ = false;
  Clock::time_point start_{}, queued_{};
  std::vector<Clock::time_point> due_, released_, written_;
  std::vector<std::string> responses_;
};

double us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

struct PhaseResult {
  std::vector<double> latency_us;  ///< written - due, per request
  std::vector<double> late_us;     ///< released - due, per request
  /// Drain only: responses per second in each of kDrainWindows equal runs
  /// of consecutive responses (the first starts when the whole round is
  /// queued). Their median over all rounds is the drain rate: a host stall
  /// slows a window or two, not the figure.
  std::vector<double> window_rps;
  serve::ServeStats stats;
};

/// Runs one phase over script lines [first, first + n): an open loop at
/// `period_s`, or with `drain` a pre-queued round. Checks the responses:
/// every one ok and full, ids in order, and a sample byte-identical to
/// handle_line on the same line.
PhaseResult run_phase(std::shared_ptr<const serve::ServedModel> model,
                      const RequestScript& script, std::size_t first,
                      std::size_t n, double period_s, bool drain,
                      SpanLog& spans, Outcome& out) {
  serve::ServerOptions opts;
  if (drain) opts.queue_capacity = n;  // nothing is shed
  serve::Server server(opts, std::move(model));
  ScriptTransport transport(script, first, n, period_s, drain, spans);
  server.run(transport);

  PhaseResult r;
  r.stats = server.stats_snapshot();
  const auto& resp = transport.responses();
  std::size_t bad = 0;
  for (std::size_t i = 0; i < resp.size(); ++i) {
    const serve::JsonValue v = serve::JsonValue::parse(resp[i]);
    const serve::JsonValue* ok = v.find("ok");
    const serve::JsonValue* mode = v.find("mode");
    const serve::JsonValue* id = v.find("id");
    bad += !(ok != nullptr && ok->is_bool() && ok->as_bool() &&
             mode != nullptr && mode->is_string() &&
             mode->as_string() == "full" && id != nullptr &&
             id->is_string() && id->as_string() == format("r%zu", first + i));
  }
  out.ops(n, bad + (n - std::min(n, resp.size())));
  out.check(resp.size() == n && bad == 0,
            "every response ok, full, ids in order");
  bool same = resp.size() == n;
  for (std::size_t i = 0; same && i < n; i += 97)
    same = server.handle_line(script.line(first + i)) == resp[i];
  out.check(same, "sampled responses equal handle_line on the same line");

  const auto& due = transport.due();
  const auto& written = transport.written();
  for (std::size_t i = 0; i < std::min(due.size(), written.size()); ++i) {
    r.latency_us.push_back(us(written[i] - due[i]));
    r.late_us.push_back(us(transport.released()[i] - due[i]));
  }
  if (!drain) return r;
  const std::size_t window = std::max<std::size_t>(
      1, written.size() / kDrainWindows);
  Clock::time_point from = transport.queued();
  for (std::size_t end = window; end <= written.size(); end += window) {
    const double s =
        std::chrono::duration<double>(written[end - 1] - from).count();
    r.window_rps.push_back(static_cast<double>(window) / s);
    from = written[end - 1];
  }
  return r;
}

struct DrainResult {
  std::vector<double> window_rps;  ///< over all rounds
  std::uint64_t micro_batches = 0, batched_predicts = 0;
};

/// Drains `rounds` pre-queued rounds of `round` consecutive script lines.
DrainResult run_drain(const std::shared_ptr<const serve::ServedModel>& model,
                      const RequestScript& script, std::size_t rounds,
                      std::size_t round, SpanLog& spans, Outcome& out) {
  DrainResult d;
  for (std::size_t k = 0; k < rounds; ++k) {
    const PhaseResult r =
        run_phase(model, script, k * round, round, 0.0, true, spans, out);
    d.window_rps.insert(d.window_rps.end(), r.window_rps.begin(),
                        r.window_rps.end());
    d.micro_batches += r.stats.micro_batches;
    d.batched_predicts += r.stats.batched_predicts;
  }
  return d;
}

}  // namespace

void run_serve(const Config& cfg, SpanLog& spans, Outcome& out) {
  const auto t_setup = Clock::now();
  ServeInputs in = collect_and_train_in_child(cfg);
  std::istringstream saved(in.model);
  const auto model =
      serve::ServedModel::make(core::load_model(saved), 1, "perfbench");
  const std::size_t n_open = cfg.smoke ? 200 : 4000;
  const std::size_t round = cfg.smoke ? 200 : kDrainRound;
  const std::size_t rounds = cfg.smoke ? 2 : 8;
  const std::size_t n_drain = round * rounds;
  const RequestScript script(std::move(in.features),
                             std::max(n_open, n_drain), cfg.seed);
  const double setup_s = seconds_since(t_setup);
  const double period = 1.0 / kRatePerS;

  if (cfg.trace) {
    // Service-time breakdown of single requests, outside the server loop.
    serve::Server server(serve::ServerOptions{}, model);
    const core::NapelModel& m = model->model;
    for (std::size_t i = 0; i < n_open; ++i) {
      const std::string line = script.line(i);
      serve::JsonValue req;
      {
        Span s(spans, "serve.parse");
        req = serve::JsonValue::parse(line);
      }
      std::vector<double> x;
      for (const serve::JsonValue& v : req.find("features")->items())
        x.push_back(v.as_number());
      {
        Span s(spans, "ml.infer_row");
        (void)m.ipc_flat().predict(x);
        (void)m.energy_flat().predict(x);
      }
      std::string resp;
      {
        Span s(spans, "serve.handle_line");
        resp = server.handle_line(line);
      }
      const serve::JsonValue rv = serve::JsonValue::parse(resp);
      Span s(spans, "serve.render");
      (void)rv.dump();
    }
    const auto durations_us = [&](const char* name) {
      std::vector<double> d = spans.durations(name);
      for (double& v : d) v *= 1e6;
      return d;
    };
    const std::vector<double> handle = durations_us("serve.handle_line");

    // Open loop with recording off, on, off: the p50 difference is the
    // tracing overhead.
    std::vector<double> plain_p50;
    spans.set_enabled(false);
    plain_p50.push_back(median(
        run_phase(model, script, 0, n_open, period, false, spans, out)
            .latency_us));
    spans.set_enabled(true);
    const PhaseResult traced =
        run_phase(model, script, 0, n_open, period, false, spans, out);
    spans.set_enabled(false);
    plain_p50.push_back(median(
        run_phase(model, script, 0, n_open, period, false, spans, out)
            .latency_us));
    spans.set_enabled(true);
    const DrainResult drain =
        run_drain(model, script, rounds, round, spans, out);

    const double lat_p50 = median(traced.latency_us);
    out.set("serve.parse_us", median(durations_us("serve.parse")));
    out.set("serve.handle_p50_us", median(handle));
    out.set("serve.handle_p99_us", percentile(handle, 99.0));
    out.set("ml.infer_row_us", median(durations_us("ml.infer_row")));
    out.set("serve.render_us", median(durations_us("serve.render")));
    out.set("serve.gen_late_us", percentile(traced.late_us, 99.0));
    out.set("serve.queue_wait_us", std::max(0.0, lat_p50 - median(handle)));
    out.set("serve.latency_p99_us", percentile(traced.latency_us, 99.0));
    out.set("serve.batch_rows_mean",
            drain.micro_batches == 0
                ? 1.0
                : static_cast<double>(drain.batched_predicts) /
                      static_cast<double>(drain.micro_batches));
    out.set("serve.samples", static_cast<double>(traced.latency_us.size()));
    const double plain = (plain_p50[0] + plain_p50[1]) / 2.0;
    out.set("bench.trace_overhead_pct", (lat_p50 - plain) / plain * 100.0);
    out.note(format("open-loop p50 %.1f us untraced, %.1f us traced", plain,
                    lat_p50));
    return;
  }

  std::vector<double> p50, p75, p90, p99, late99, drain_rps, rss;
  std::size_t samples = 0;
  const Passes passes = repeat_passes(cfg, 9, [&](int) {
    // Peak RSS is taken over the open loop, the serving a user sees; a
    // drain round holds every queued request at once.
    reset_peak_rss();
    const PhaseResult open =
        run_phase(model, script, 0, n_open, period, false, spans, out);
    rss.push_back(peak_rss_mb());
    const DrainResult drain =
        run_drain(model, script, rounds, round, spans, out);
    p50.push_back(median(open.latency_us));
    p75.push_back(percentile(open.latency_us, 75.0));
    p90.push_back(percentile(open.latency_us, 90.0));
    p99.push_back(percentile(open.latency_us, 99.0));
    late99.push_back(percentile(open.late_us, 99.0));
    drain_rps.insert(drain_rps.end(), drain.window_rps.begin(),
                     drain.window_rps.end());
    samples += open.latency_us.size();
  });

  out.set("setup_s", setup_s);
  out.set("main_s", median(p50) * 1e-6);
  // The tail past p75 is printed but not gated: host stalls of several
  // milliseconds decide it, so it does not repeat from run to run.
  out.set("side_s", median(p75) * 1e-6);
  out.set("rate_per_s", median(drain_rps));
  out.set("peak_rss_mb", median(rss));
  out.note(format("serve_p50_us %.2f us (main_s), serve_p75_us %.2f us "
                  "(side_s), serve_p90_us %.2f us, serve_p99_us %.2f us at "
                  "%.0f requests/s open loop, %zu samples over %d passes; "
                  "generator p99 lateness %.2f us",
                  median(p50), median(p75), median(p90), median(p99),
                  kRatePerS, samples, passes.count, median(late99)));
  out.note(format("serve_drain_rps %.1f (rate_per_s), median of %zu "
                  "windows; %zu pre-queued rounds of %zu requests per pass",
                  median(drain_rps), drain_rps.size(), rounds, round));
}

}  // namespace perfbench
