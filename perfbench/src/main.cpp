// perfbench: the NAPEL flow benchmark program. Normally started through
// perfbench/run.py, which builds it first:
//
//   perfbench --workload collect|train|explore|serve --seed N --seconds S
//             --trace 0|1 [--smoke] [--out-dir DIR]
//   perfbench --list-metrics
//
// Prints human-readable result lines, then one JSON summary line:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
// With --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set (see bench.hpp).
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "bench.hpp"
#include "spans.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload collect|train|explore|serve "
               "--seed N --seconds S --trace 0|1 [--smoke] [--out-dir DIR]\n"
               "       perfbench --list-metrics\n";
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') usage(flag);
  return v;
}

void list_metrics() {
  for (const auto& [set, specs] :
       {std::pair{"end_to_end", &end_to_end_metrics()},
        std::pair{"per_layer", &per_layer_metrics()}})
    for (const MetricSpec& m : *specs)
      std::printf("%s %s %s %s\n", set, m.name, m.unit, m.better);
}

std::string json_summary(const Outcome& out,
                         const std::vector<MetricSpec>& specs) {
  std::string metrics;
  for (const MetricSpec& m : specs) {
    double value = 0.0;
    for (const auto& [name, v] : out.values())
      if (name == m.name) value = v;
    if (!metrics.empty()) metrics += ", ";
    metrics += format("\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", m.name,
                      value, m.unit);
  }
  return format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}",
      out.correct() ? "true" : "false",
      static_cast<unsigned long long>(out.attempted()),
      static_cast<unsigned long long>(out.failed()), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value after a flag");
      return argv[++i];
    };
    if (a == "--list-metrics") {
      list_metrics();
      return 0;
    } else if (a == "--workload") {
      cfg.workload = value();
    } else if (a == "--seed") {
      cfg.seed = parse_u64(value(), "bad --seed");
      have_seed = true;
    } else if (a == "--seconds") {
      cfg.seconds = static_cast<double>(parse_u64(value(), "bad --seconds"));
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string_view t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      cfg.trace = t == "1";
      have_trace = true;
    } else if (a == "--smoke") {
      cfg.smoke = true;
    } else if (a == "--out-dir") {
      cfg.out_dir = value();
    } else {
      usage("unknown argument");
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds and --trace are required");

  void (*run)(const Config&, SpanLog&, Outcome&) = nullptr;
  if (cfg.workload == "collect") run = run_collect;
  else if (cfg.workload == "train") run = run_train;
  else if (cfg.workload == "explore") run = run_explore;
  else if (cfg.workload == "serve") run = run_serve;
  else usage("unknown --workload");

  const std::string host = host_fingerprint_json();
  std::printf("host: %s\n", host.c_str());
  std::printf("workload %s, seed %llu, %s run%s\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? "traced" : "untraced", cfg.smoke ? " (smoke)" : "");
  std::fflush(stdout);

  SpanLog spans(cfg.trace);
  Outcome out;
  try {
    run(cfg, spans, out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << cfg.workload << " failed: " << e.what()
              << '\n';
    return 1;
  }

  const auto& specs = cfg.trace ? per_layer_metrics() : end_to_end_metrics();
  if (cfg.trace) {
    out.set("bench.spans", static_cast<double>(spans.size()));
  } else {
    out.set("ok_frac", 1.0 - out.failed_frac());
  }
  std::string bypassed;
  for (const MetricSpec& m : specs) {
    bool present = false;
    for (const auto& [name, v] : out.values()) present |= name == m.name;
    if (present) continue;
    if (!cfg.trace) {
      std::cerr << "perfbench: " << cfg.workload << " did not measure "
                << m.name << '\n';
      return 1;
    }
    bypassed += bypassed.empty() ? "" : " ";
    bypassed += m.name;
  }
  for (const auto& [name, v] : out.values()) {
    const char* unit = "";
    for (const MetricSpec& m : specs)
      if (name == m.name) unit = m.unit;
    if (*unit == '\0') {
      std::cerr << "perfbench: undeclared metric " << name << '\n';
      return 1;
    }
  }

  if (!cfg.out_dir.empty()) {
    const std::string stem = cfg.out_dir + "/" + cfg.workload + "-seed" +
                             std::to_string(cfg.seed) +
                             (cfg.trace ? "-traced" : "");
    if (cfg.trace && !spans.write_json(stem + "-spans.json"))
      std::cerr << "perfbench: could not write spans to " << stem << '\n';
    if (std::FILE* f = std::fopen((stem + "-host.json").c_str(), "w")) {
      std::fprintf(f, "%s\n", host.c_str());
      std::fclose(f);
    }
  }

  for (const std::string& line : out.notes()) std::printf("%s\n", line.c_str());
  if (!bypassed.empty())
    std::printf("layers bypassed by this workload (reported as 0): %s\n",
                bypassed.c_str());
  std::printf("%s\n", json_summary(out, specs).c_str());
  return 0;
}
