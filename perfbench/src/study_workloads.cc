// study-paper and study-scale: single-process analyst batches through the
// core, san and markov public entry points.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>

#include "core/mc_validator.hh"
#include "core/performability.hh"
#include "core/sweep.hh"
#include "core/templates.hh"
#include "markov/krylov.hh"
#include "obs/obs.hh"
#include "san/hash.hh"
#include "san/random_model.hh"
#include "san/session.hh"
#include "san/state_space.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

namespace core = gop::core;
namespace markov = gop::markov;
namespace obs = gop::obs;
namespace san = gop::san;

namespace {

/// study-paper analysis points per second of --seconds.
constexpr double kPaperPointsPerSecond = 40.0;
constexpr size_t kPhiGridPoints = 41;
/// study-paper analyses per operation: a 32nd of a 4^4 cross.
constexpr size_t kPointsPerOp = 8;
/// Back-to-back set-ups per re-timed setup_s sample (the study set-ups take
/// milliseconds).
constexpr size_t kSetupRepeats = 5;
constexpr uint64_t kMcSeed = 20020623;
constexpr size_t kMcReplications = 600;
constexpr double kMcPhiShares[] = {0.2, 0.5, 0.8};
/// Golden-file tolerance of tests/golden_regression_test.cc.
constexpr double kGoldenRel = 1e-7;
constexpr double kGoldenAbs = 1e-12;
constexpr double kKrylovAgreement = 1e-8;

std::string num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

bool close_to_golden(double got, double want) {
  return std::abs(got - want) <= kGoldenAbs + kGoldenRel * std::abs(want);
}

/// Compares `computed` against the golden file `name`: every golden key must
/// be present and within tolerance.
void check_golden(const std::string& golden_dir, const std::string& name,
                  const std::map<std::string, double>& computed, RunResult& result) {
  const std::map<std::string, double> golden = read_golden(golden_dir + "/" + name + ".json");
  result.check(!golden.empty(), "golden file " + name + " missing or empty");
  for (const auto& [key, want] : golden) {
    const auto it = computed.find(key);
    result.check(it != computed.end() && close_to_golden(it->second, want),
                 name + "/" + key + ": golden " + num(want) + ", got " +
                     (it == computed.end() ? std::string("nothing") : num(it->second)));
  }
}

std::string phi_key(double phi) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "phi_%05.0f", phi);
  return buffer;
}

void add_sweep(std::map<std::string, double>& out, const std::string& prefix,
               const core::GsuParameters& params, const std::vector<double>& phis) {
  const core::PerformabilityAnalyzer analyzer(params);
  for (const core::PerformabilityResult& r : core::sweep_phi(analyzer, phis)) {
    out[prefix + phi_key(r.phi) + "/y"] = r.y;
  }
}

/// The paper's headline numbers: the Table-3 optimum and the Table-3 / Fig
/// 9-12 curves against tests/golden.
void check_paper_results(const std::string& golden_dir, const core::OptimalPhi& optimum,
                         RunResult& result) {
  const core::GsuParameters t3 = core::GsuParameters::table3();
  {
    const core::PerformabilityAnalyzer analyzer(t3);
    char text[64];
    std::snprintf(text, sizeof text, "%.1f %.6f", optimum.phi, optimum.y);
    result.check(std::string(text) == "6684.0 1.539105",
                 std::string("table3 optimum is ") + text + ", expected 6684.0 1.539105");

    std::map<std::string, double> baseline;
    for (const core::PerformabilityResult& r :
         core::sweep_phi(analyzer, core::linspace(0.0, t3.theta, 11))) {
      const std::string k = phi_key(r.phi) + "/";
      baseline[k + "y"] = r.y;
      baseline[k + "e_w0"] = r.e_w0;
      baseline[k + "e_wphi"] = r.e_wphi;
      baseline[k + "y_s1"] = r.y_s1;
      baseline[k + "y_s2"] = r.y_s2;
      baseline[k + "gamma"] = r.gamma;
    }
    check_golden(golden_dir, "table3_baseline_sweep", baseline, result);
  }
  const std::vector<double> phis = core::linspace(0.0, 10000.0, 11);
  std::map<std::string, double> fig09;
  std::map<std::string, double> fig12;
  for (double mu_new : {1e-4, 0.5e-4}) {
    core::GsuParameters p = t3;
    p.mu_new = mu_new;
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "mu_new_%g/", mu_new);
    add_sweep(fig09, prefix, p, phis);
    p.theta = 5000.0;
    add_sweep(fig12, prefix, p, core::linspace(0.0, 5000.0, 11));
  }
  check_golden(golden_dir, "fig09_fault_rate", fig09, result);
  check_golden(golden_dir, "fig12_shorter_theta", fig12, result);

  std::map<std::string, double> fig10;
  for (double rate : {6000.0, 2500.0}) {
    core::GsuParameters p = t3;
    p.alpha = rate;
    p.beta = rate;
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "alpha_beta_%05.0f/", rate);
    const core::PerformabilityAnalyzer analyzer(p);
    fig10[std::string(prefix) + "rho1"] = analyzer.rho1();
    fig10[std::string(prefix) + "rho2"] = analyzer.rho2();
    for (const core::PerformabilityResult& r : core::sweep_phi(analyzer, phis)) {
      fig10[prefix + phi_key(r.phi) + "/y"] = r.y;
    }
  }
  check_golden(golden_dir, "fig10_overhead", fig10, result);

  std::map<std::string, double> fig11;
  for (double coverage : {0.95, 0.75, 0.50}) {
    core::GsuParameters p = t3;
    p.alpha = 2500.0;
    p.beta = 2500.0;
    p.coverage = coverage;
    char prefix[32];
    std::snprintf(prefix, sizeof prefix, "coverage_%.2f/", coverage);
    add_sweep(fig11, prefix, p, phis);
  }
  check_golden(golden_dir, "fig11_coverage", fig11, result);
}

struct PaperBatch {
  std::vector<double> latency_s;
  double wall_s = 0.0;
};

/// One analysis: analyzer construction, a 41-point Y(phi) batch and the
/// optimal phi, checked for internal consistency.
void analyse_point(const PaperPoint& point, PaperBatch& batch, RunResult& result) {
  core::GsuParameters params = core::GsuParameters::table3();
  params.alpha = point.alpha;
  params.beta = point.alpha;
  params.lambda = point.lambda;
  params.coverage = point.coverage;
  params.mu_new = point.mu_new;
  const Clock::time_point t0 = Clock::now();
  std::optional<core::PerformabilityAnalyzer> analyzer;
  {
    obs::ScopedSpan span("bench.core.analyzer");
    analyzer.emplace(params);
  }
  std::vector<core::PerformabilityResult> curve;
  {
    obs::ScopedSpan span("bench.core.evaluate_batch");
    curve = analyzer->evaluate_batch(core::linspace(0.0, params.theta, kPhiGridPoints), 1);
  }
  core::OptimalPhi optimum;
  {
    obs::ScopedSpan span("bench.core.find_optimal_phi");
    optimum = core::find_optimal_phi(*analyzer);
  }
  batch.latency_s.push_back(seconds_between(t0, Clock::now()));

  double best = 0.0;
  bool finite = true;
  for (const core::PerformabilityResult& r : curve) {
    finite = finite && std::isfinite(r.y) && r.y > 0.0;
    best = std::max(best, r.y);
  }
  result.check(finite && curve.size() == kPhiGridPoints && std::abs(curve[0].y - 1.0) <= 1e-12 &&
                   optimum.phi >= 0.0 && optimum.phi <= params.theta && optimum.y >= best,
               "inconsistent analysis at alpha=" + num(point.alpha) +
                   " lambda=" + num(point.lambda) + " c=" + num(point.coverage) +
                   " mu_new=" + num(point.mu_new));
}

/// Analyses every point, in kSegments segments with `between` called,
/// untimed, after each.
PaperBatch paper_batch(const std::vector<PaperPoint>& points, RunResult& result,
                       const std::function<void()>& between) {
  PaperBatch batch;
  for (size_t segment = 0; segment < kSegments; ++segment) {
    const Clock::time_point start = Clock::now();
    for (size_t i = points.size() * segment / kSegments;
         i < points.size() * (segment + 1) / kSegments; ++i) {
      analyse_point(points[i], batch, result);
    }
    batch.wall_s += seconds_between(start, Clock::now());
    between();
  }
  return batch;
}

struct McPhase {
  double wall_s = 0.0;
  double paths = 0.0;
};

/// McValidator at three phi values with a fixed seed and replication count,
/// on the scaled mission (Table 3 with theta / 100 and rates x 100: the same
/// analysis at a path cost the phase can afford, as tests/core_mc_test.cc
/// uses it). Each estimate must agree with the translated solution within
/// that test's 8%.
McPhase mc_phase(RunResult& result) {
  const core::GsuParameters params = core::GsuParameters::scaled_mission();
  const core::PerformabilityAnalyzer analyzer(params);
  core::McOptions options;
  options.replications.seed = kMcSeed;
  options.replications.min_replications = kMcReplications;
  options.replications.max_replications = kMcReplications;
  const core::McValidator validator(params, options);
  McPhase phase;
  for (const double share : kMcPhiShares) {
    const double phi = share * params.theta;
    const core::PerformabilityResult exact = analyzer.evaluate(phi);
    const Clock::time_point start = Clock::now();
    core::McPerformability estimate;
    {
      obs::ScopedSpan span("bench.sim.mc_estimate");
      estimate = validator.estimate(phi, analyzer.rho1(), analyzer.rho2(), exact.gamma);
    }
    phase.wall_s += seconds_between(start, Clock::now());
    phase.paths += static_cast<double>(estimate.e_w0.replications + estimate.e_wphi.replications);
    result.check(std::abs(estimate.y - exact.y) <= 0.08 * exact.y,
                 "MC estimate " + num(estimate.y) + " misses Y=" + num(exact.y) +
                     " at phi=" + num(phi));
  }
  return phase;
}

void add_study_end_to_end(RunResult& result, const std::vector<double>& latency_s, double wall_s,
                          const SetupTimer& setups) {
  const TailPoint tail = tail_percentile(latency_s);
  result.end_to_end = {
      {"throughput_ops_s", static_cast<double>(latency_s.size()) / wall_s, "1/s"},
      {"latency_p50_ms", median(latency_s) * 1e3, "ms"},
      {"latency_tail_ms", tail.value * 1e3, "ms"},
      {"setup_s", setups.median_s(), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  result.info["setup_samples"] = std::to_string(setups.count());
  result.info["latency_samples"] = std::to_string(tail.samples);
  result.info["latency_tail_percentile"] = num(tail.percentile);
  result.info["latency_tail_beyond"] = std::to_string(tail.beyond);
}

struct PaperSetup {
  std::vector<PaperPoint> grid;
  core::OptimalPhi table3_optimum;  ///< the reference answer, checked after the run
};

PaperSetup paper_setup(uint64_t seed, size_t points) {
  PaperSetup setup;
  setup.grid = paper_grid(seed, points);
  const core::PerformabilityAnalyzer table3(core::GsuParameters::table3());
  setup.table3_optimum = core::find_optimal_phi(table3);
  return setup;
}

}  // namespace

std::vector<PaperPoint> paper_grid(uint64_t seed, size_t points) {
  // Whole crosses of fixed levels, so every seed sends the same points in
  // its own order: an analysis costs one of a few distinct amounts (Pade
  // squarings, golden-section steps), and any change in the mix moves the
  // median between them.
  const double alphas[] = {2000.0, 3500.0, 5000.0, 6000.0};
  const double lambdas[] = {600.0, 1200.0, 1800.0, 2400.0};
  const double coverages[] = {0.5, 0.75, 0.9, 0.95};
  const double mu_news[] = {5e-5, 1e-4, 2e-4, 3e-4};
  const size_t crosses = std::max<size_t>(1, (points + 128) / 256);
  Rng rng(derive_seed(seed, "paper-grid"));
  std::vector<PaperPoint> grid;
  for (size_t k = 0; k < crosses; ++k) {
    std::vector<PaperPoint> cross;
    for (double a : alphas) {
      for (double l : lambdas) {
        for (double c : coverages) {
          for (double m : mu_news) {
            cross.push_back({a, l, c, m});
          }
        }
      }
    }
    for (size_t i = cross.size(); i > 1; --i) std::swap(cross[i - 1], cross[rng.index(i)]);
    grid.insert(grid.end(), cross.begin(), cross.end());
  }
  return grid;
}

std::string paper_grid_hash(const std::vector<PaperPoint>& grid) {
  StreamHash h;
  for (const PaperPoint& p : grid) {
    for (double v : {p.alpha, p.lambda, p.coverage, p.mu_new}) h.add(num(v));
  }
  return h.hex();
}

ScaleInputs scale_inputs(uint64_t seed) {
  Rng rng(derive_seed(seed, "scale"));
  ScaleInputs in;
  in.campaign_upgrade_rate = rng.uniform(0.8, 1.2);
  in.campaign_success_prob = rng.uniform(0.85, 0.95);
  in.campaign_grid = core::linspace(0.0, rng.uniform(18.0, 22.0), 5);
  const double horizon = rng.uniform(0.45, 0.55);
  in.large_grid = {horizon / 2.0, horizon};
  return in;
}

std::string scale_inputs_hash(const ScaleInputs& in) {
  StreamHash h;
  h.add(num(in.campaign_upgrade_rate));
  h.add(num(in.campaign_success_prob));
  for (double t : in.campaign_grid) h.add(num(t));
  for (double t : in.large_grid) h.add(num(t));
  return h.hex();
}

RunResult run_study_paper(const RunConfig& config) {
  RunResult result;
  const size_t points =
      std::max<size_t>(16, static_cast<size_t>(kPaperPointsPerSecond * config.seconds));
  SetupTimer setups(config.process_start);
  PaperSetup setup;
  setups.time([&] { setup = paper_setup(config.seed, points); });
  const auto set_up_again = [&] {
    PaperSetup again;
    setups.time([&] { again = paper_setup(config.seed, points); }, kSetupRepeats);
  };
  const std::vector<PaperPoint>& grid = setup.grid;
  result.info["grid_hash"] = paper_grid_hash(grid);
  result.info["points"] = std::to_string(grid.size());

  const std::vector<PaperPoint> untraced_grid(
      grid.begin(), grid.begin() + static_cast<std::ptrdiff_t>(config.trace ? grid.size() / 2
                                                                             : grid.size()));
  const PaperBatch batch = paper_batch(untraced_grid, result, set_up_again);
  const McPhase mc = mc_phase(result);
  // One operation is kPointsPerOp consecutive analyses. A single analysis
  // takes ~15 ms and the analyses cost nearly the same, so per analysis the
  // tail would follow the host's brief slow spells, not the program.
  std::vector<double> op_latency_s;
  for (size_t i = 0; i + kPointsPerOp <= batch.latency_s.size(); i += kPointsPerOp) {
    const auto first = batch.latency_s.begin() + static_cast<std::ptrdiff_t>(i);
    op_latency_s.push_back(std::accumulate(first, first + kPointsPerOp, 0.0));
  }
  add_study_end_to_end(result, op_latency_s, batch.wall_s, setups);
  result.detail = {
      {"study_s", batch.wall_s, "s"},
      {"points_per_s", static_cast<double>(batch.latency_s.size()) / batch.wall_s, "1/s"},
      {"point_latency_p50_ms", median(batch.latency_s) * 1e3, "ms"},
      {"mc_paths_per_s", mc.paths / mc.wall_s, "1/s"}};

  if (config.trace) {
    const std::vector<PaperPoint> traced_grid(grid.begin() + static_cast<std::ptrdiff_t>(grid.size() / 2),
                                              grid.end());
    begin_trace();
    const PaperBatch traced = paper_batch(traced_grid, result, [] {});
    (void)mc_phase(result);
    const obs::Snapshot snapshot = obs::snapshot();
    end_trace();
    LayerValues values;
    add_registry_layers(snapshot, values);
    std::map<std::string, SpanTotals> totals = span_totals(snapshot.root);
    values["core.optimum_ms"] = totals["bench.core.find_optimal_phi"].wall_s * 1e3;
    values["core.evaluations"] = static_cast<double>(traced_grid.size() * kPhiGridPoints);
    values["obs.tracing_overhead"] =
        (traced.wall_s / static_cast<double>(traced_grid.size())) /
        (batch.wall_s / static_cast<double>(untraced_grid.size()));
    emit_layers(values, result);
    write_trace_json(config, snapshot, result);
  }

  check_paper_results(config.golden_dir, setup.table3_optimum, result);
  return result;
}

namespace {

core::StructuralSweepSpec nproc_spec(size_t threads) {
  core::StructuralSweepSpec spec;
  spec.family = "nproc";
  std::vector<san::tpl::ParamValue> ns;
  for (int64_t n = 1; n <= 7; ++n) ns.push_back(san::tpl::ParamValue::of_int(n));
  spec.axes.push_back({"servers", {san::tpl::ParamValue::of_int(1), san::tpl::ParamValue::of_int(2)}});
  spec.axes.push_back({"n", std::move(ns)});
  // The grid of tests/golden/structural_sweep_nproc.json, so the servers=1,
  // n<=3 cells can be held to it.
  spec.phis = core::linspace(0.0, 20.0, 5);
  spec.threads = threads;
  return spec;
}

core::StructuralSweepSpec campaign_spec(const ScaleInputs& in, size_t threads) {
  core::StructuralSweepSpec spec;
  spec.family = "upgrade-campaign";
  spec.base.set_real("upgrade_rate", in.campaign_upgrade_rate);
  spec.base.set_real("success_prob", in.campaign_success_prob);
  std::vector<san::tpl::ParamValue> stages;
  for (int64_t k = 1; k <= 8; ++k) stages.push_back(san::tpl::ParamValue::of_int(k));
  spec.axes.push_back({"on_failure", {san::tpl::ParamValue::parse("absorb"),
                                      san::tpl::ParamValue::parse("retry")}});
  spec.axes.push_back({"stages", std::move(stages)});
  spec.phis = in.campaign_grid;
  spec.threads = threads;
  return spec;
}

/// The san_large_sparse_test chain: 10 places at capacity 3, 20 activities,
/// seed 1 — 262144 tangible states.
std::unique_ptr<san::SanModel> large_model() {
  san::RandomModelOptions options;
  options.min_places = options.max_places = 10;
  options.min_activities = options.max_activities = 20;
  options.max_cases = 2;
  options.place_capacity = 3;
  return std::make_unique<san::SanModel>(san::random_san(1, options));
}

struct LargeSolve {
  std::optional<san::GeneratedChain> chain;
  std::optional<san::ChainSession> transient;
  std::optional<san::ChainSession> accumulated;
  double generate_s = 0.0;
  double total_s = 0.0;
};

void solve_large(const san::SanModel& model, const std::vector<double>& grid, LargeSolve& out) {
  const Clock::time_point t0 = Clock::now();
  {
    obs::ScopedSpan span("bench.san.generate_state_space");
    out.chain.emplace(san::generate_state_space(model));
  }
  out.generate_s = seconds_between(t0, Clock::now());
  san::GridSolveOptions transient;
  transient.recovery = markov::RecoveryPolicy{};
  san::GridSolveOptions accumulated = transient;
  accumulated.transient = false;
  accumulated.accumulated = true;
  {
    obs::ScopedSpan span("bench.san.chain_session");
    out.transient.emplace(*out.chain, grid, transient);
    out.accumulated.emplace(*out.chain, grid, accumulated);
  }
  out.total_s = seconds_between(t0, Clock::now());
}

/// One study-scale operation: the nproc sweep, the campaign sweep and the
/// large model, in that order.
struct ScaleBatch {
  double nproc_s = 0.0;
  double campaign_s = 0.0;
  double large_s = 0.0;
  double wall_s = 0.0;
  double sweep_wall_s = 0.0;
  double sweep_cpu_s = 0.0;
  double generate_s = 0.0;
  size_t large_states = 0;
  core::StructuralSweepResult nproc;
  core::StructuralSweepResult campaign;
};

/// The three phases, with `between` called, untimed, after each.
ScaleBatch scale_batch(const core::StructuralSweepSpec& nproc, const core::StructuralSweepSpec& campaign,
                       const san::SanModel& model, const std::vector<double>& large_grid,
                       LargeSolve& large, const std::function<void()>& between) {
  ScaleBatch batch;
  const double cpu0 = process_cpu_s();
  const Clock::time_point t0 = Clock::now();
  {
    obs::ScopedSpan span("bench.core.structural_sweep");
    batch.nproc = core::structural_sweep(nproc);
  }
  const Clock::time_point t1 = Clock::now();
  const double cpu1 = process_cpu_s();
  between();
  const double cpu2 = process_cpu_s();
  const Clock::time_point t2 = Clock::now();
  {
    obs::ScopedSpan span("bench.core.structural_sweep");
    batch.campaign = core::structural_sweep(campaign);
  }
  batch.campaign_s = seconds_between(t2, Clock::now());
  batch.sweep_cpu_s = process_cpu_s() - cpu2 + (cpu1 - cpu0);
  between();
  batch.nproc_s = seconds_between(t0, t1);
  batch.sweep_wall_s = batch.nproc_s + batch.campaign_s;
  large = LargeSolve{};
  solve_large(model, large_grid, large);
  between();
  batch.generate_s = large.generate_s;
  batch.large_states = large.chain->state_count();
  batch.large_s = large.total_s;
  batch.wall_s = batch.sweep_wall_s + batch.large_s;
  return batch;
}

/// chain_hash and state count of every cell of `spec`, generated one
/// instance at a time outside the sweep; keyed by the resolved assignment.
using ReferenceChains = std::map<std::string, std::pair<uint64_t, size_t>>;

ReferenceChains reference_chains(const core::StructuralSweepSpec& spec) {
  const san::tpl::Template& tpl = core::template_registry().find(spec.family);
  std::vector<san::tpl::Assignment> cells = {spec.base};
  for (const core::StructuralAxis& axis : spec.axes) {
    std::vector<san::tpl::Assignment> crossed;
    for (const san::tpl::Assignment& cell : cells) {
      for (const san::tpl::ParamValue& value : axis.values) {
        san::tpl::Assignment next = cell;
        next.set(axis.param, value);
        crossed.push_back(std::move(next));
      }
    }
    cells = std::move(crossed);
  }
  ReferenceChains out;
  for (const san::tpl::Assignment& cell : cells) {
    const san::tpl::Instance instance = tpl.instantiate(cell);
    const san::GeneratedChain chain = san::generate_state_space(*instance.model);
    out[instance.resolved.to_string()] = {san::chain_hash(chain), chain.state_count()};
  }
  return out;
}

void check_cells(const core::StructuralSweepResult& sweep, const ReferenceChains& references,
                 RunResult& result) {
  result.check(sweep.cells.size() == references.size(),
               sweep.family + " sweep has " + std::to_string(sweep.cells.size()) + " cells");
  for (const core::StructuralCell& cell : sweep.cells) {
    const auto it = references.find(cell.assignment.to_string());
    bool bounded = true;
    for (const std::vector<double>& series : cell.series) {
      for (double v : series) bounded = bounded && std::isfinite(v) && v >= -1e-12;
    }
    result.check(it != references.end() && it->second.first == cell.chain_hash &&
                     it->second.second == cell.states && bounded && !cell.series.empty(),
                 sweep.family + " cell " + cell.label + " disagrees with its own instance");
  }
}

void check_nproc_golden(const std::string& golden_dir, const core::StructuralSweepResult& sweep,
                        RunResult& result) {
  std::map<std::string, double> computed;
  for (const core::StructuralCell& cell : sweep.cells) {
    if (cell.assignment.int_at("servers") != 1 || cell.assignment.int_at("n") > 3) continue;
    const std::string k = "n=" + std::to_string(cell.assignment.int_at("n")) + "/";
    computed[k + "states"] = static_cast<double>(cell.states);
    for (size_t r = 0; r < cell.rewards.size(); ++r) {
      for (size_t i = 0; i < sweep.phis.size(); ++i) {
        char t[16];
        std::snprintf(t, sizeof t, "t_%05.0f", sweep.phis[i]);
        computed[k + cell.rewards[r] + "/" + t] = cell.series[r][i];
      }
    }
  }
  check_golden(golden_dir, "structural_sweep_nproc", computed, result);
}

/// Krylov against the uniformization session on the large chain at the
/// grid's first point (the cheaper Krylov solve), plus the certificates: a
/// sparse engine, not degraded.
void check_large(const LargeSolve& large, const std::vector<double>& grid, RunResult& result) {
  const markov::Ctmc& ctmc = large.chain->ctmc();
  const size_t first = 0;
  const double t = grid[first];
  const std::vector<double> krylov = markov::krylov_transient_distribution(ctmc, t);
  const std::vector<double>& session = large.transient->transient_session().distribution_at(first);
  double diff = krylov.size() == session.size() ? 0.0 : 1.0;
  for (size_t s = 0; s < std::min(krylov.size(), session.size()); ++s) {
    diff = std::max(diff, std::abs(krylov[s] - session[s]));
  }
  result.check(diff <= kKrylovAgreement,
               "Krylov and session transient disagree by " + num(diff) + " on the large chain");

  const std::vector<double> krylov_acc = markov::krylov_accumulated_occupancy(ctmc, t);
  const std::vector<double>& occupancy = large.accumulated->accumulated_session().occupancy_at(first);
  double diff_acc = krylov_acc.size() == occupancy.size() ? 0.0 : 1.0;
  for (size_t s = 0; s < std::min(krylov_acc.size(), occupancy.size()); ++s) {
    diff_acc = std::max(diff_acc, std::abs(krylov_acc[s] - occupancy[s]));
  }
  result.check(diff_acc <= kKrylovAgreement * std::max(1.0, t),
               "Krylov and session occupancy disagree by " + num(diff_acc) + " on the large chain");

  for (const auto* plan : {&large.transient->transient_plan(), &large.accumulated->accumulated_plan()}) {
    result.check(plan->storage == markov::StorageForm::kSparse,
                 std::string("large chain not planned sparse: ") + plan->engine);
  }
  for (const auto* cert : {&large.transient->transient_session().certificate(),
                           &large.accumulated->accumulated_session().certificate()}) {
    result.check(cert->has_value() && !(*cert)->degraded,
                 "large chain solve missing a clean certificate");
  }
}

/// Batches per run at least, however long one takes.
constexpr size_t kMinScaleBatches = 2;

struct ScaleSetup {
  ScaleInputs inputs;
  std::optional<core::StructuralSweepSpec> nproc;
  std::optional<core::StructuralSweepSpec> campaign;
  std::unique_ptr<san::SanModel> model;
  ReferenceChains nproc_chains;
  ReferenceChains campaign_chains;
};

ScaleSetup scale_setup(uint64_t seed, size_t threads) {
  ScaleSetup setup;
  setup.inputs = scale_inputs(seed);
  setup.nproc = nproc_spec(threads);
  setup.campaign = campaign_spec(setup.inputs, threads);
  setup.model = large_model();
  setup.nproc_chains = reference_chains(*setup.nproc);
  setup.campaign_chains = reference_chains(*setup.campaign);
  return setup;
}

/// Runs and checks one batch; the sweeps' cells are held to their reference
/// chains and the nproc golden.
ScaleBatch checked_batch(const RunConfig& config, const ScaleSetup& setup, LargeSolve& large,
                         RunResult& result, const std::function<void()>& between) {
  ScaleBatch batch = scale_batch(*setup.nproc, *setup.campaign, *setup.model,
                                 setup.inputs.large_grid, large, between);
  check_cells(batch.nproc, setup.nproc_chains, result);
  check_cells(batch.campaign, setup.campaign_chains, result);
  check_nproc_golden(config.golden_dir, batch.nproc, result);
  return batch;
}

struct ScaleRun {
  std::vector<double> batch_s;
  std::vector<double> nproc_s;
  std::vector<double> campaign_s;
  std::vector<double> large_s;
  double wall_s = 0.0;  ///< batch time only, set-ups excluded
};

/// Whole batches while another one, at the mean batch time so far, still
/// ends within `seconds` of batch time (at least kMinScaleBatches), with
/// `between` called, untimed, after each phase.
ScaleRun scale_batches(const RunConfig& config, const ScaleSetup& setup, double seconds,
                       LargeSolve& large, RunResult& result, const std::function<void()>& between) {
  ScaleRun run;
  while (run.batch_s.size() < kMinScaleBatches ||
         run.wall_s * (1.0 + 1.0 / static_cast<double>(run.batch_s.size())) <= seconds) {
    const ScaleBatch batch = checked_batch(config, setup, large, result, between);
    run.batch_s.push_back(batch.wall_s);
    run.nproc_s.push_back(batch.nproc_s);
    run.campaign_s.push_back(batch.campaign_s);
    run.large_s.push_back(batch.large_s);
    run.wall_s += batch.wall_s;
  }
  return run;
}

}  // namespace

RunResult run_study_scale(const RunConfig& config) {
  RunResult result;
  const size_t threads =
      std::max<size_t>(1, std::min<size_t>(4, std::thread::hardware_concurrency()));
  SetupTimer setups(config.process_start);
  ScaleSetup setup;
  setups.time([&] { setup = scale_setup(config.seed, threads); });
  const auto set_up_again = [&] {
    ScaleSetup again;
    setups.time([&] { again = scale_setup(config.seed, threads); }, kSetupRepeats);
  };
  result.info["inputs_hash"] = scale_inputs_hash(setup.inputs);
  result.info["threads"] = std::to_string(threads);

  LargeSolve large;
  const double untraced_seconds = config.trace ? config.seconds / 2.0 : config.seconds;
  const ScaleRun run = scale_batches(config, setup, untraced_seconds, large, result, set_up_again);
  add_study_end_to_end(result, run.batch_s, run.wall_s, setups);
  result.detail = {{"study_s", median(run.batch_s), "s"},
                   {"nproc_sweep_s", median(run.nproc_s), "s"},
                   {"campaign_sweep_s", median(run.campaign_s), "s"},
                   {"large_model_s", median(run.large_s), "s"},
                   {"large_model_states", static_cast<double>(large.chain->state_count()), "count"}};
  result.info["batches"] = std::to_string(run.batch_s.size());
  // A traced run checks the traced batch instead, so the Krylov cross-check's
  // sub-steps show in its trace.
  if (!config.trace) check_large(large, setup.inputs.large_grid, result);

  if (config.trace) {
    large = LargeSolve{};
    begin_trace();
    const ScaleBatch traced = checked_batch(config, setup, large, result, [] {});
    check_large(large, setup.inputs.large_grid, result);
    const obs::Snapshot snapshot = obs::snapshot();
    end_trace();
    LayerValues values;
    add_registry_layers(snapshot, values);
    values["san.generate_ms"] = traced.generate_s * 1e3;
    values["san.states"] = static_cast<double>(traced.large_states);
    values["san.states_per_s"] = static_cast<double>(traced.large_states) / traced.generate_s;
    values["par.utilization"] =
        traced.sweep_cpu_s / (static_cast<double>(threads) * traced.sweep_wall_s);
    values["obs.tracing_overhead"] = traced.wall_s / median(run.batch_s);
    emit_layers(values, result);
    write_trace_json(config, snapshot, result);
  }
  return result;
}

}  // namespace perfbench
