#pragma once

/// \file workloads.hh
/// The four named workloads of the repo benchmark and their seeded input
/// generators (exposed so the self-tests can pin their determinism).

#include <cstdint>
#include <string>
#include <vector>

#include "common.hh"

namespace perfbench {

// --- serve-hot / serve-churn ----------------------------------------------

/// One distinct request of the fixed hot set, kept in parts so the churn
/// generator can derive never-seen variants (fresh grids) of it.
struct HotRequest {
  std::string source;   ///< "model"/"template" members, e.g. "\"model\":\"rmgd\""
  std::string rewards;  ///< the "rewards" array text
  /// The model's natural time unit for fresh grids; 0 when the instance is
  /// too large for a cheap transient solve (no fresh grids drawn on it).
  double time_scale = 1.0;
  std::string line;     ///< the full wire line
};

/// The fixed hot set: the four paper models with Table-3 variants, template
/// instances (nproc n <= 5, upgrade-campaign, rmgp duration_stages) and
/// transient, accumulated and steady-state grids. Independent of the seed.
const std::vector<HotRequest>& hot_set();

/// Per-client closed-loop key streams: seeded Zipf draws over the hot set
/// (the rank -> request map is one fixed permutation).
std::vector<std::vector<uint32_t>> hot_key_streams(uint64_t seed, size_t clients,
                                                   size_t length);

enum class ChurnKind { kHot, kFreshGrid, kNewPoint, kNewTemplate, kInvalid };

struct ChurnStream {
  std::vector<std::string> lines;
  std::vector<ChurnKind> kinds;
  std::vector<uint32_t> hot_index;  ///< hot-set index for kHot, else 0
  std::vector<double> due_s;        ///< arrival times, non-decreasing
};

/// Serve-churn arrival rate (requests/s). The mix's closed-loop capacity
/// (4 clients, churn_capacity) measured ~1000 req/s where the benchmark was
/// defined; at 300-700 req/s the single cold-solve thread queues often
/// enough that the p50 and tail spread across seeds beyond the benchmark's
/// bounds, so the rate sits at about a seventh of capacity (README.md).
inline constexpr double kChurnRate = 150.0;

/// `rate * seconds` seeded Poisson arrivals (uniform order statistics, i.e.
/// a Poisson process conditioned on its count) carrying the churn mix.
ChurnStream churn_stream(uint64_t seed, double rate, double seconds);
std::string stream_hash(const ChurnStream& stream);

/// Closed-loop capacity (requests/s) of 4 clients over `requests` requests
/// of the churn mix on a prewarmed daemon-default server; how kChurnRate was
/// chosen (gop_perfbench --churn-capacity N).
double churn_capacity(const RunConfig& config, size_t requests);

RunResult run_serve_hot(const RunConfig& config);
RunResult run_serve_churn(const RunConfig& config);

// --- study-paper / study-scale --------------------------------------------

struct PaperPoint {
  double alpha = 0.0;  ///< alpha = beta
  double lambda = 0.0;
  double coverage = 0.0;
  double mu_new = 0.0;
};

/// The Table-3 sensitivity grid: whole 4 x 4 x 4 x 4 crosses of alpha
/// (= beta), lambda, coverage and mu_new levels (as many as round
/// `points` / 256, at least one), each cross in a seeded order.
std::vector<PaperPoint> paper_grid(uint64_t seed, size_t points);
std::string paper_grid_hash(const std::vector<PaperPoint>& grid);

struct ScaleInputs {
  double campaign_upgrade_rate = 1.0;
  double campaign_success_prob = 0.9;
  std::vector<double> campaign_grid;  ///< 5 points
  std::vector<double> large_grid;     ///< 2 points, the large chain's horizon
};

ScaleInputs scale_inputs(uint64_t seed);
std::string scale_inputs_hash(const ScaleInputs& inputs);

RunResult run_study_paper(const RunConfig& config);
RunResult run_study_scale(const RunConfig& config);

}  // namespace perfbench
