// gop_perfbench — the repo benchmark's workload runner (see README.md).
//
//   gop_perfbench --workload serve-hot|serve-churn|study-paper|study-scale
//                 --seed N --seconds S --trace 0|1 --golden-dir DIR
//                 [--trace-out FILE] [--provenance JSON]
//   gop_perfbench --seed N --churn-capacity REQUESTS
//
// Prints a human-readable report, then as its last line one JSON object:
// {"correct", "attempted", "failed", "metrics"} — the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1. Exits 1 when any
// correctness check failed, 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "common.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

int usage(const char* message) {
  std::fprintf(stderr, "gop_perfbench: %s\n", message);
  std::fprintf(stderr,
               "usage: gop_perfbench --workload W --seed N --seconds S --trace 0|1 "
               "--golden-dir DIR [--trace-out FILE] [--provenance JSON]\n");
  return 2;
}

void print_metrics(const char* heading, const std::vector<Metric>& metrics) {
  std::printf("%s\n", heading);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.process_start = Clock::now();
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) return usage("every option takes a value");
    const char* value = argv[++i];
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
      have_seconds = true;
    } else if (arg == "--trace") {
      config.trace = std::string_view(value) == "1";
    } else if (arg == "--golden-dir") {
      config.golden_dir = value;
    } else if (arg == "--trace-out") {
      config.trace_out = value;
    } else if (arg == "--provenance") {
      config.provenance = value;
    } else if (arg == "--churn-capacity") {
      const double rps = churn_capacity(config, std::strtoull(value, nullptr, 10));
      std::printf("serve-churn closed-loop capacity (4 clients): %.1f req/s\n", rps);
      return 0;
    } else {
      return usage("unknown option");
    }
  }
  if (!have_seconds || !(config.seconds > 0.0)) return usage("--seconds must be positive");
  if (config.golden_dir.empty()) return usage("--golden-dir is required");

  RunResult result;
  try {
    if (config.workload == "serve-hot") {
      result = run_serve_hot(config);
    } else if (config.workload == "serve-churn") {
      result = run_serve_churn(config);
    } else if (config.workload == "study-paper") {
      result = run_study_paper(config);
    } else if (config.workload == "study-scale") {
      result = run_study_scale(config);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gop_perfbench: %s failed: %s\n", config.workload.c_str(), e.what());
    return 1;
  }

  std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds, config.trace ? 1 : 0);
  print_metrics("end-to-end (gated):", result.end_to_end);
  print_metrics("end-to-end (workload detail):", result.detail);
  const double failed_share = result.attempted == 0
                                  ? 1.0
                                  : static_cast<double>(result.failed) /
                                        static_cast<double>(result.attempted);
  std::printf("  %-32s %18.6f ratio (%llu of %llu operations)\n", "failed_share", failed_share,
              static_cast<unsigned long long>(result.failed),
              static_cast<unsigned long long>(result.attempted));
  if (config.trace) print_metrics("per-layer (traced run):", result.layers);
  for (const auto& [key, value] : result.info) {
    std::printf("  info %s = %s\n", key.c_str(), value.c_str());
  }
  for (const std::string& failure : result.failures) {
    std::printf("  FAILED: %s\n", failure.c_str());
  }

  const bool correct = result.failed == 0 && result.attempted > 0;
  const std::vector<Metric>& reported = config.trace ? result.layers : result.end_to_end;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < reported.size(); ++i) {
    json += (i ? ", \"" : "\"") + reported[i].name + "\": {\"value\": " +
            json_number(reported[i].value) + ", \"unit\": \"" + reported[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
