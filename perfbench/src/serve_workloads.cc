// serve-hot and serve-churn: wire-format JSON lines through the serve codec,
// serve::Server::handle, and back through the codec, as the gop_serve daemon
// does for each line it reads.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <thread>

#include "core/rm_gd.hh"
#include "core/rm_gp.hh"
#include "core/rm_nd.hh"
#include "core/templates.hh"
#include "lint/admission.hh"
#include "markov/recovery.hh"
#include "obs/obs.hh"
#include "san/session.hh"
#include "san/state_space.hh"
#include "serve/json.hh"
#include "serve/request.hh"
#include "serve/server.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench {

namespace core = gop::core;
namespace lint = gop::lint;
namespace markov = gop::markov;
namespace obs = gop::obs;
namespace san = gop::san;
namespace serve = gop::serve;

namespace {

constexpr size_t kClients = 4;
/// Cold responses per run re-solved outside the server.
constexpr size_t kVerifySamples = 6;
/// Cap on requests in a traced serve-hot pass: one request-log event each,
/// all kept in memory so that none is dropped.
constexpr uint64_t kTracedRequestCap = 250'000;

std::string num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string grid_member(const char* field, const std::vector<double>& grid) {
  std::string out = "\"";
  out += field;
  out += "\":[";
  for (size_t i = 0; i < grid.size(); ++i) out += (i ? "," : "") + num(grid[i]);
  return out + "]";
}

std::string make_line(const std::string& id, const std::string& source,
                      const std::string& rewards, const std::string& grid) {
  return "{\"id\":\"" + id + "\"," + source + ",\"rewards\":" + rewards + "," + grid + "}";
}

struct Shape {
  const char* rewards;
  std::string grid;
};

std::vector<Shape> rmgd_shapes() {
  return {{"[\"P_A1\",\"Ih\"]", grid_member("transient_times", {2000, 5000, 7000})},
          {"[\"Ihf\"]", grid_member("transient_times", {6684})},
          {"[\"Itauh\"]", grid_member("accumulated_times", {1000, 6684})},
          {"[\"detected\"]", grid_member("transient_times", {10000})},
          {"[\"P_A1\",\"Ih\",\"Ihf\"]",
           grid_member("transient_times",
                       {1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000})},
          {"[\"Itauh\",\"P_A1\"]", grid_member("transient_times", {3000}) + "," +
                                       grid_member("accumulated_times", {3000})}};
}

std::vector<Shape> rmgp_shapes() {
  return {{"[\"1-rho1\",\"1-rho2\"]", "\"steady_state\":true"},
          {"[\"1-rho1\"]", "\"steady_state\":true"},
          {"[\"1-rho2\"]", "\"steady_state\":true"},
          {"[\"1-rho1\"]", grid_member("transient_times", {1, 10})},
          {"[\"1-rho2\"]", grid_member("accumulated_times", {10})},
          {"[\"1-rho1\",\"1-rho2\"]",
           grid_member("transient_times", {0.5}) + ",\"steady_state\":true"}};
}

/// Erlang-stage RMGp chains are too large for a cheap dense transient solve,
/// so their hot requests stay on steady state (the overheads rho1/rho2).
std::vector<Shape> rmgp_stage_shapes() {
  return {{"[\"1-rho1\",\"1-rho2\"]", "\"steady_state\":true"},
          {"[\"1-rho1\"]", "\"steady_state\":true"},
          {"[\"1-rho2\"]", "\"steady_state\":true"},
          {"[\"1-rho2\",\"1-rho1\"]", "\"steady_state\":true"}};
}

std::vector<Shape> rmnd_shapes() {
  return {{"[\"no_failure\"]", grid_member("transient_times", {10000})},
          {"[\"no_failure\"]", grid_member("transient_times", {3316})},
          {"[\"no_failure\"]", grid_member("transient_times", {5000, 10000})},
          {"[\"no_failure\"]", grid_member("accumulated_times", {10000})},
          {"[\"no_failure\"]",
           grid_member("transient_times",
                       {1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000})},
          {"[\"no_failure\"]", grid_member("transient_times", {2000}) + "," +
                                   grid_member("accumulated_times", {2000})}};
}

std::vector<Shape> nproc_shapes() {
  return {{"[\"all_up\"]", grid_member("transient_times", {1, 5, 10})},
          {"[\"up_fraction\",\"degraded\"]", grid_member("transient_times", {2, 20})},
          {"[\"all_up\"]", grid_member("accumulated_times", {10})},
          {"[\"degraded\"]", "\"steady_state\":true"},
          {"[\"up_fraction\"]", grid_member("transient_times", {0, 5, 10, 15, 20})},
          {"[\"all_up\",\"up_fraction\",\"degraded\"]",
           grid_member("accumulated_times", {5, 20})}};
}

std::vector<Shape> campaign_shapes() {
  return {{"[\"completed\"]", grid_member("transient_times", {1, 3, 10})},
          {"[\"failed\"]", grid_member("transient_times", {5})},
          {"[\"completed\",\"failed\"]", grid_member("accumulated_times", {10})},
          {"[\"completed\"]", grid_member("transient_times", {0.5, 1, 2, 4, 8})},
          {"[\"failed\"]", grid_member("accumulated_times", {2, 20})},
          {"[\"completed\",\"failed\"]", grid_member("transient_times", {20})}};
}

void add_family(std::vector<HotRequest>& out, const std::string& source,
                const std::vector<Shape>& shapes, double time_scale) {
  for (const Shape& shape : shapes) {
    HotRequest request;
    request.source = source;
    request.rewards = shape.rewards;
    request.time_scale = time_scale;
    request.line = make_line("h" + std::to_string(out.size()), source, shape.rewards, shape.grid);
    out.push_back(std::move(request));
  }
}

std::string registered_source(const std::string& model, const std::string& params) {
  std::string source = "\"model\":\"" + model + "\"";
  if (!params.empty()) source += ",\"params\":{" + params + "}";
  return source;
}

std::string template_source(const std::string& family, const std::string& assignment) {
  return "\"template\":\"" + family + "\",\"assignment\":{" + assignment + "}";
}

// --- the wire path ----------------------------------------------------------

struct WireTiming {
  double in_s = 0.0;
  double handle_s = 0.0;
  double out_s = 0.0;
};

/// One request line through codec -> handle -> codec, exactly as gop_serve's
/// serve_line: a line that does not parse becomes a kError response.
std::string serve_line(serve::Server& server, const std::string& line, serve::Response& response,
                       bool& parsed, WireTiming& timing) {
  const Clock::time_point t0 = Clock::now();
  serve::Request request;
  parsed = false;
  try {
    obs::ScopedSpan span("bench.serve.codec_in");
    request = serve::parse_request(serve::parse(line));
    parsed = true;
  } catch (const std::exception& e) {
    response = serve::Response{};
    response.status = serve::Status::kError;
    response.error = e.what();
  }
  const Clock::time_point t1 = Clock::now();
  if (parsed) {
    obs::ScopedSpan span("bench.serve.handle");
    response = server.handle(request);
  }
  const Clock::time_point t2 = Clock::now();
  std::string wire;
  {
    obs::ScopedSpan span("bench.serve.codec_out");
    wire = serve::response_to_json(response).dump();
  }
  const Clock::time_point t3 = Clock::now();
  timing.in_s = seconds_between(t0, t1);
  timing.handle_s = seconds_between(t1, t2);
  timing.out_s = seconds_between(t2, t3);
  return wire;
}

/// The response text after its per-request fields (id, status, cache_hit,
/// latency_ms): everything that must be bitwise-stable for one key.
std::string_view stable_part(std::string_view wire) {
  const size_t at = wire.find("\"latency_ms\":");
  if (at == std::string_view::npos) return wire;
  const size_t comma = wire.find(',', at);
  return comma == std::string_view::npos ? std::string_view{} : wire.substr(comma + 1);
}

// --- out-of-server solves and instance replay -------------------------------

struct BuiltModel {
  std::unique_ptr<san::SanModel> model;
  std::vector<san::RewardStructure> rewards;
};

/// Builds the request's model the way a client would without the server:
/// template families from the registry, paper models from their builders.
BuiltModel build_model(const serve::Request& request) {
  BuiltModel out;
  if (!request.template_name.empty()) {
    san::tpl::Instance instance =
        core::template_registry().find(request.template_name).instantiate(request.assignment);
    out.model = std::move(instance.model);
    out.rewards = std::move(instance.rewards);
  } else if (request.model == "rmgd") {
    core::RmGd gd = core::build_rm_gd(request.params);
    out.rewards = {gd.reward_p_a1(), gd.reward_ih(), gd.reward_ihf(), gd.reward_itauh(),
                   gd.reward_detected()};
    out.model = std::make_unique<san::SanModel>(std::move(gd.model));
  } else if (request.model == "rmgp") {
    core::RmGp gp = core::build_rm_gp(request.params);
    out.rewards = {gp.reward_overhead_p1n(), gp.reward_overhead_p2()};
    out.model = std::make_unique<san::SanModel>(std::move(gp.model));
  } else if (request.model == "rmnd-new" || request.model == "rmnd-old") {
    const double mu = request.model == "rmnd-new" ? request.params.mu_new : request.params.mu_old;
    core::RmNd nd = core::build_rm_nd(request.params, mu);
    out.rewards = {nd.reward_no_failure()};
    out.model = std::make_unique<san::SanModel>(std::move(nd.model));
  } else {
    throw std::runtime_error("no out-of-server builder for model '" + request.model + "'");
  }
  return out;
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Re-solves `line` with san::ChainSession outside the server and compares
/// every series bit for bit; returns an empty string on agreement.
std::string verify_out_of_server(const std::string& line,
                                 const std::vector<serve::RewardSeries>& served) {
  const serve::Request request = serve::parse_request(serve::parse(line));
  const BuiltModel built = build_model(request);
  const san::GeneratedChain chain = san::generate_state_space(*built.model);
  const markov::RecoveryPolicy recovery = serve::ServerOptions{}.recovery;

  std::optional<san::ChainSession> transient;
  if (!request.transient_times.empty()) {
    san::GridSolveOptions options;
    options.recovery = recovery;
    transient.emplace(chain, request.transient_times, options);
  }
  std::optional<san::ChainSession> accumulated;
  if (!request.accumulated_times.empty()) {
    san::GridSolveOptions options;
    options.transient = false;
    options.accumulated = true;
    options.recovery = recovery;
    accumulated.emplace(chain, request.accumulated_times, options);
  }
  std::optional<std::vector<double>> steady;
  if (request.steady_state) {
    steady = markov::steady_state_distribution_checked(chain.ctmc(), {}, recovery).distribution;
  }

  if (served.size() != request.rewards.size()) return "series count differs";
  for (size_t r = 0; r < request.rewards.size(); ++r) {
    const san::RewardStructure* reward = nullptr;
    for (const san::RewardStructure& candidate : built.rewards) {
      if (candidate.name() == request.rewards[r]) reward = &candidate;
    }
    if (reward == nullptr) return "unknown reward " + request.rewards[r];
    const serve::RewardSeries& series = served[r];
    if (transient && !same_bits(series.instant, transient->instant_reward_series(*reward))) {
      return "instant series of " + request.rewards[r] + " differs";
    }
    if (accumulated &&
        !same_bits(series.accumulated, accumulated->accumulated_reward_series(*reward))) {
      return "accumulated series of " + request.rewards[r] + " differs";
    }
    if (steady) {
      const double expected = chain.steady_state_reward_over(*reward, *steady);
      if (!series.steady_state || std::memcmp(&*series.steady_state, &expected, sizeof expected)) {
        return "steady-state value of " + request.rewards[r] + " differs";
      }
    }
  }
  return {};
}

/// Replays each distinct instance of `lines` through generation and lint
/// admission (the server's instance-build path), timing both in spans.
void replay_instances(const std::vector<std::string>& lines, LayerValues& values) {
  std::set<std::string> seen;
  double generate_s = 0.0;
  double admission_s = 0.0;
  double states = 0.0;
  double admissions = 0.0;
  for (const std::string& line : lines) {
    const serve::Request request = serve::parse_request(serve::parse(line));
    const core::GsuParameters& p = request.params;
    const std::string instance_key =
        request.template_name.empty()
            ? request.model + num(p.theta) + num(p.lambda) + num(p.mu_new) + num(p.mu_old) +
                  num(p.coverage) + num(p.p_ext) + num(p.alpha) + num(p.beta)
            : request.template_name + std::to_string(san::tpl::param_hash(
                                          core::template_registry()
                                              .find(request.template_name)
                                              .resolve(request.assignment)));
    if (!seen.insert(instance_key).second) continue;

    const BuiltModel built = build_model(request);
    const Clock::time_point t0 = Clock::now();
    std::optional<san::GeneratedChain> chain;
    {
      obs::ScopedSpan span("bench.san.generate_state_space");
      chain.emplace(san::generate_state_space(*built.model));
    }
    const Clock::time_point t1 = Clock::now();
    lint::AdmissionInput input;
    input.model = built.model.get();
    input.chain = &*chain;
    lint::AdmissionOptions options;
    options.model_lint.max_probe_markings = serve::ServerOptions{}.probe_budget;
    {
      obs::ScopedSpan span("bench.lint.admission");
      (void)lint::admission_check_keep_chain(input, options);
    }
    const Clock::time_point t2 = Clock::now();
    generate_s += seconds_between(t0, t1);
    admission_s += seconds_between(t1, t2);
    states += static_cast<double>(chain->state_count());
    admissions += 1.0;
  }
  values["san.generate_ms"] = generate_s * 1e3;
  values["san.states"] = states;
  values["san.states_per_s"] = generate_s > 0.0 ? states / generate_s : 0.0;
  values["lint.admission_ms"] = admission_s * 1e3;
  values["lint.admissions"] = admissions;
}

/// Wall time of solver spans that ran on pool threads (top-level nodes).
double pool_solver_s(const obs::Snapshot& snapshot) {
  double total = 0.0;
  for (const obs::SpanNode& node : snapshot.root.children) {
    if (node.name == "san.chain_session" || node.name == "markov.steady_state") {
      total += static_cast<double>(node.wall_ns) * 1e-9;
    }
  }
  return total;
}

void add_server_layers(const serve::ServerStats& before, const serve::ServerStats& after,
                       LayerValues& values) {
  const double requests = static_cast<double>(after.requests - before.requests);
  values["serve.cache_hit_ratio"] =
      requests > 0.0 ? static_cast<double>(after.cache_hits - before.cache_hits) / requests : 0.0;
  values["serve.evictions"] = static_cast<double>(after.evictions - before.evictions);
  values["serve.instance_evictions"] =
      static_cast<double>(after.instance_evictions - before.instance_evictions);
  values["serve.chain_builds"] = static_cast<double>(after.chain_builds - before.chain_builds);
  values["serve.coalesced"] = static_cast<double>(after.coalesced - before.coalesced);
  values["serve.rejected"] = static_cast<double>(after.rejected - before.rejected);
  values["serve.errors"] = static_cast<double>(after.errors - before.errors);
}

/// Per-request phase times of a traced pass: codec in, codec out, and
/// handle() of the requests answered from the cache.
struct PhaseTimes {
  Histogram in;
  Histogram out;
  Histogram hit_handle;

  void merge(const PhaseTimes& other) {
    in.merge(other.in);
    out.merge(other.out);
    hit_handle.merge(other.hit_handle);
  }
};

void add_phase_layers(const PhaseTimes& phases, LayerValues& values) {
  values["serve.codec_in_us_p50"] = phases.in.percentile(50.0) * 1e6;
  values["serve.codec_in_us_p99"] = phases.in.percentile(99.0) * 1e6;
  values["serve.codec_out_us_p50"] = phases.out.percentile(50.0) * 1e6;
  values["serve.codec_out_us_p99"] = phases.out.percentile(99.0) * 1e6;
  values["serve.handle_hit_us_p50"] = phases.hit_handle.percentile(50.0) * 1e6;
  values["serve.handle_hit_us_p99"] = phases.hit_handle.percentile(99.0) * 1e6;
}

// --- set-up -----------------------------------------------------------------

struct WarmServer {
  std::unique_ptr<serve::Server> server;
  std::vector<std::string> expected;  ///< stable response part per hot request
  std::vector<std::vector<serve::RewardSeries>> results;
};

/// A cheap request of its own key: a transient point on the one-process
/// nproc instance.
std::string filler_line(size_t k) {
  return make_line("f" + std::to_string(k), template_source("nproc", "\"n\":1,\"servers\":1"),
                   "[\"all_up\"]",
                   grid_member("transient_times", {0.01 * static_cast<double>(k + 1)}));
}

/// Sends `line` through the wire path and checks it was served.
std::string serve_checked(serve::Server& server, const std::string& line,
                          serve::Response& response, RunResult& result) {
  bool parsed = false;
  WireTiming timing;
  std::string wire = serve_line(server, line, response, parsed, timing);
  result.check(response.ok(), "prewarm refused " + line + ": " + wire);
  return wire;
}

/// Builds a server and solves the whole hot set through the wire path; the
/// responses become the reference every later response for the key must
/// equal bit for bit. With `fill`, filler requests then take the rest of the
/// result cache and the hot set is sent again (all hits), so the cache is
/// full with the fillers least recently used.
WarmServer prewarm(const serve::ServerOptions& options, bool fill, RunResult& result) {
  WarmServer warm;
  warm.server = std::make_unique<serve::Server>(options);
  for (const HotRequest& hot : hot_set()) {
    serve::Response response;
    const std::string wire = serve_checked(*warm.server, hot.line, response, result);
    warm.expected.emplace_back(stable_part(wire));
    warm.results.push_back(response.results);
  }
  if (!fill) return warm;
  // Hot requests that share a key (parameters a model ignores) solve once.
  const size_t hot_keys = warm.server->stats().cold_solves;
  for (size_t k = 0; hot_keys + k < options.cache_capacity; ++k) {
    serve::Response response;
    (void)serve_checked(*warm.server, filler_line(k), response, result);
  }
  for (size_t i = 0; i < hot_set().size(); ++i) {
    serve::Response response;
    const std::string wire = serve_checked(*warm.server, hot_set()[i].line, response, result);
    result.check(response.cache_hit && stable_part(wire) == warm.expected[i],
                 "prewarmed request not a bitwise-equal hit: " + hot_set()[i].line);
  }
  return warm;
}

/// The serve-churn set-up: a daemon-default server with its result cache
/// full, so every never-seen key of the measured window evicts an entry (a
/// filler while any is left).
WarmServer churn_prewarm(RunResult& result) {
  return prewarm(serve::ServerOptions{}, true, result);
}

void verify_sample(const std::vector<std::pair<std::string, const std::vector<serve::RewardSeries>*>>&
                       candidates,
                   uint64_t seed, RunResult& result) {
  if (candidates.empty()) return;
  Rng rng(derive_seed(seed, "verify"));
  for (size_t k = 0; k < std::min(kVerifySamples, candidates.size()); ++k) {
    const auto& [line, served] = candidates[rng.index(candidates.size())];
    std::string why;
    try {
      why = verify_out_of_server(line, *served);
    } catch (const std::exception& e) {
      why = e.what();
    }
    result.check(why.empty(), "out-of-server solve disagrees for " + line + ": " + why);
  }
}

/// The gated metrics: the median of `typical` and the tail of `latency`.
void add_common_end_to_end(RunResult& result, double throughput, const Histogram& typical,
                           const Histogram& latency, const SetupTimer& setups) {
  const TailPoint tail = latency.tail();
  result.end_to_end = {
      {"throughput_ops_s", throughput, "1/s"},
      {"latency_p50_ms", typical.percentile(50.0) * 1e3, "ms"},
      {"latency_tail_ms", tail.value * 1e3, "ms"},
      {"setup_s", setups.median_s(), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  result.info["setup_samples"] = std::to_string(setups.count());
  result.info["latency_samples"] = std::to_string(tail.samples);
  result.info["latency_tail_percentile"] = num(tail.percentile);
  result.info["latency_tail_beyond"] = std::to_string(tail.beyond);
}

// --- serve-hot --------------------------------------------------------------

struct ClientLog {
  Histogram latency;
  PhaseTimes phases;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;
  Clock::time_point last_done;
};

struct ClosedLoop {
  Histogram latency;
  PhaseTimes phases;
  uint64_t requests = 0;
  double wall_s = 0.0;

  void merge(const ClosedLoop& other) {
    latency.merge(other.latency);
    phases.merge(other.phases);
    requests += other.requests;
    wall_s += other.wall_s;
  }
};

/// Closed loop: each client sends its next request when the previous one
/// returned, until `seconds` pass or `cap` requests (0 = none) were sent.
/// Client c continues its stream from positions[c].
ClosedLoop closed_loop(const WarmServer& warm, const std::vector<std::vector<uint32_t>>& streams,
                       std::vector<size_t>& positions, double seconds, uint64_t cap,
                       RunResult& result) {
  const std::vector<HotRequest>& hot = hot_set();
  std::vector<ClientLog> logs(streams.size());
  std::atomic<uint64_t> issued{0};
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < streams.size(); ++c) {
    clients.emplace_back([&, c] {
      ClientLog& log = logs[c];
      const std::vector<uint32_t>& stream = streams[c];
      log.last_done = start;
      for (size_t& pos = positions[c];; ++pos) {
        const Clock::time_point t0 = Clock::now();
        if (t0 >= end) break;
        if (cap > 0 && issued.fetch_add(1, std::memory_order_relaxed) >= cap) break;
        const uint32_t key = stream[pos % stream.size()];
        serve::Response response;
        bool parsed = false;
        WireTiming timing;
        const std::string wire = serve_line(*warm.server, hot[key].line, response, parsed, timing);
        const Clock::time_point t1 = Clock::now();
        log.latency.add(seconds_between(t0, t1));
        log.phases.in.add(timing.in_s);
        log.phases.out.add(timing.out_s);
        log.phases.hit_handle.add(timing.handle_s);
        log.last_done = t1;
        ++log.attempted;
        if (!response.ok() || !response.cache_hit || stable_part(wire) != warm.expected[key]) {
          if (log.failed++ == 0) log.first_failure = hot[key].line + " -> " + wire;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  ClosedLoop out;
  Clock::time_point last = start;
  for (ClientLog& log : logs) {
    out.latency.merge(log.latency);
    out.phases.merge(log.phases);
    result.attempted += log.attempted;
    if (log.failed > 0) {
      result.failed += log.failed - 1;
      result.fail("hot request not a bitwise-equal hit: " + log.first_failure);
    }
    last = std::max(last, log.last_done);
  }
  out.requests = out.latency.count();
  out.wall_s = seconds_between(start, last);
  return out;
}

}  // namespace

const std::vector<HotRequest>& hot_set() {
  static const std::vector<HotRequest> set = [] {
    std::vector<HotRequest> out;
    const std::vector<std::string> variants = {"",
                                               "\"alpha\":2500,\"beta\":2500",
                                               "\"coverage\":0.75",
                                               "\"mu_new\":5e-05",
                                               "\"alpha\":2500,\"beta\":2500,\"coverage\":0.5"};
    for (const std::string& params : variants) {
      add_family(out, registered_source("rmgd", params), rmgd_shapes(), 10000.0);
      add_family(out, registered_source("rmgp", params), rmgp_shapes(), 10.0);
      add_family(out, registered_source("rmnd-new", params), rmnd_shapes(), 10000.0);
      add_family(out, registered_source("rmnd-old", params), rmnd_shapes(), 10000.0);
    }
    for (int n = 1; n <= 5; ++n) {
      for (int servers = 1; servers <= 2; ++servers) {
        add_family(out,
                   template_source("nproc", "\"n\":" + std::to_string(n) +
                                                ",\"servers\":" + std::to_string(servers)),
                   nproc_shapes(), 20.0);
      }
    }
    for (int stages : {2, 4, 6}) {
      for (const char* policy : {"absorb", "retry"}) {
        add_family(out,
                   template_source("upgrade-campaign", "\"stages\":" + std::to_string(stages) +
                                                           ",\"on_failure\":\"" + policy + "\""),
                   campaign_shapes(), 20.0);
      }
    }
    for (int stages = 2; stages <= 4; ++stages) {
      add_family(out, template_source("rmgp", "\"duration_stages\":" + std::to_string(stages)),
                 rmgp_stage_shapes(), 0.0);
    }
    return out;
  }();
  return set;
}

std::vector<std::vector<uint32_t>> hot_key_streams(uint64_t seed, size_t clients,
                                                   size_t length) {
  const size_t n = hot_set().size();
  std::vector<uint32_t> rank_to_key(n);
  for (size_t i = 0; i < n; ++i) rank_to_key[i] = static_cast<uint32_t>(i);
  // The rank -> request map is fixed, so every seed sends the same cost mix;
  // the seed picks the draws.
  Rng shuffle(derive_seed(0, "hot-permutation"));
  for (size_t i = n; i > 1; --i) std::swap(rank_to_key[i - 1], rank_to_key[shuffle.index(i)]);
  const Zipf zipf(n, 1.0);
  std::vector<std::vector<uint32_t>> streams(clients);
  for (size_t c = 0; c < clients; ++c) {
    Rng rng(derive_seed(seed, "hot-client", c));
    streams[c].reserve(length);
    for (size_t i = 0; i < length; ++i) streams[c].push_back(rank_to_key[zipf.draw(rng)]);
  }
  return streams;
}

namespace {

/// One block of the churn mix in its exact shares: 70% hot-set requests,
/// 15% fresh grids, 5% new Table-3 points, 5% new template instances and 5%
/// intended-invalid requests. The block is short, so the heavy cold solves
/// are spread evenly over the window rather than bunched by chance.
std::vector<ChurnKind> churn_block() {
  std::vector<ChurnKind> block;
  for (const auto& [kind, n] : {std::pair{ChurnKind::kHot, 14}, std::pair{ChurnKind::kFreshGrid, 3},
                                std::pair{ChurnKind::kNewPoint, 1},
                                std::pair{ChurnKind::kNewTemplate, 1},
                                std::pair{ChurnKind::kInvalid, 1}}) {
    block.insert(block.end(), static_cast<size_t>(n), kind);
  }
  return block;
}

}  // namespace

ChurnStream churn_stream(uint64_t seed, double rate, double seconds) {
  const std::vector<HotRequest>& hot = hot_set();
  const std::vector<std::vector<uint32_t>> hot_keys =
      hot_key_streams(seed, 1, static_cast<size_t>(std::ceil(rate * seconds)) + 1);
  const size_t count = static_cast<size_t>(std::llround(rate * seconds));
  Rng rng(derive_seed(seed, "churn"));
  ChurnStream stream;
  for (size_t i = 0; i < count; ++i) stream.due_s.push_back(rng.uniform(0.0, seconds));
  std::sort(stream.due_s.begin(), stream.due_s.end());

  const char* models[] = {"rmgd", "rmgp", "rmnd-new", "rmnd-old"};
  // Each kind, and each model or family within a kind, is dealt in its exact
  // share per block, so every seed sends the same cost mix; the seed picks
  // the order and the parameters.
  const std::vector<ChurnKind> shares = churn_block();
  std::vector<ChurnKind> block;
  // Fresh grids go to the hot set's instances in one fixed order for the
  // same reason: their cost depends mostly on the instance.
  std::vector<size_t> fresh_order;
  for (size_t k = 0; k < hot.size(); ++k) {
    if (hot[k].time_scale > 0.0) fresh_order.push_back(k);
  }
  Rng fixed(derive_seed(0, "fresh-grid-order"));
  for (size_t j = fresh_order.size(); j > 1; --j) {
    std::swap(fresh_order[j - 1], fresh_order[fixed.index(j)]);
  }
  size_t fresh_grids = 0;
  size_t new_points = 0;
  size_t new_templates = 0;
  size_t invalids = 0;
  for (size_t i = 0; i < count; ++i) {
    if (i % shares.size() == 0) {
      block = shares;
      for (size_t j = block.size(); j > 1; --j) std::swap(block[j - 1], block[rng.index(j)]);
    }
    const std::string id = "c" + std::to_string(i);
    const ChurnKind kind = block[i % block.size()];
    std::string line;
    uint32_t hot_index = 0;
    if (kind == ChurnKind::kHot) {
      hot_index = hot_keys[0][i];
      line = hot[hot_index].line;
    } else if (kind == ChurnKind::kFreshGrid) {
      // A fresh grid on an instance of the hot set: a cold solve on a
      // (probably) cached instance.
      const HotRequest& base = hot[fresh_order[fresh_grids++ % fresh_order.size()]];
      line = make_line(id, base.source, base.rewards,
                       grid_member("transient_times",
                                   {base.time_scale * rng.uniform(0.05, 1.0)}));
    } else if (kind == ChurnKind::kNewPoint) {
      // A new Table-3 point: a new instance, so generation and admission run.
      const std::string model = models[new_points++ % 4];
      const double alpha = rng.uniform(2000.0, 8000.0);
      const std::string params = "\"alpha\":" + num(alpha) + ",\"beta\":" + num(alpha) +
                                 ",\"lambda\":" + num(rng.uniform(600.0, 2400.0)) +
                                 ",\"coverage\":" + num(rng.uniform(0.5, 0.99)) +
                                 ",\"mu_new\":" + num(rng.uniform(3e-5, 3e-4));
      if (model == "rmgp") {
        line = make_line(id, registered_source(model, params), "[\"1-rho1\",\"1-rho2\"]",
                         "\"steady_state\":true");
      } else if (model == "rmgd") {
        line = make_line(id, registered_source(model, params), "[\"P_A1\",\"Ih\"]",
                         grid_member("transient_times", {rng.uniform(1000.0, 10000.0)}));
      } else {
        line = make_line(id, registered_source(model, params), "[\"no_failure\"]",
                         grid_member("transient_times", {rng.uniform(1000.0, 10000.0)}));
      }
    } else if (kind == ChurnKind::kNewTemplate) {
      const size_t family = new_templates++ % 3;
      if (family == 0) {
        // The heaviest never-seen request (a ~300-state dense solve); one
        // shape, so its cost is homogeneous and the tail it forms is stable.
        line = make_line(
            id,
            template_source("nproc", "\"n\":6,\"servers\":2,\"fail_rate\":" +
                                         num(rng.uniform(0.08, 0.12))),
            "[\"all_up\"]", grid_member("transient_times", {rng.uniform(10.0, 20.0)}));
      } else if (family == 1) {
        line = make_line(id,
                         template_source("random", "\"seed\":" +
                                                       std::to_string(1 + rng.index(1'000'000'000))),
                         "[\"tokens\"]", grid_member("transient_times", {rng.uniform(0.5, 5.0)}));
      } else {
        line = make_line(
            id,
            template_source("upgrade-campaign",
                            "\"stages\":" + std::to_string(2 + rng.index(7)) +
                                ",\"success_prob\":" + num(rng.uniform(0.7, 0.99)) +
                                ",\"on_failure\":\"" + (rng.index(2) ? "retry" : "absorb") + "\""),
            "[\"completed\"]", grid_member("transient_times", {rng.uniform(1.0, 10.0)}));
      }
    } else {
      // Intended-invalid: each must be refused.
      const size_t form = invalids++ % 3;
      if (form == 0) {
        line = make_line(id, registered_source("rmgd", ""), "[\"no_such_reward\"]",
                         grid_member("transient_times", {1000}));
      } else if (form == 1) {
        line = make_line(id, template_source("nproc", "\"n\":" + std::to_string(9 + rng.index(8))),
                         "[\"all_up\"]", grid_member("transient_times", {1}));
      } else {
        line = "{\"id\":\"" + id + "\",\"model\":\"rmgd\",\"rewards\":[\"P_A1\"";
      }
    }
    stream.lines.push_back(std::move(line));
    stream.kinds.push_back(kind);
    stream.hot_index.push_back(hot_index);
  }
  return stream;
}

std::string stream_hash(const ChurnStream& stream) {
  StreamHash h;
  for (size_t i = 0; i < stream.lines.size(); ++i) {
    h.add(stream.lines[i]);
    h.add(static_cast<uint64_t>(std::llround(stream.due_s[i] * 1e9)));
  }
  return h.hex();
}

RunResult run_serve_hot(const RunConfig& config) {
  RunResult result;
  serve::ServerOptions options;
  // Room for every hot-set instance, so the window is pure cache hits.
  options.instance_capacity = 64;
  SetupTimer setups(config.process_start);
  WarmServer warm;
  setups.time([&] { warm = prewarm(options, false, result); });

  const std::vector<std::vector<uint32_t>> streams =
      hot_key_streams(config.seed, kClients, size_t{1} << 18);
  StreamHash h;
  for (const auto& stream : streams) {
    for (uint32_t key : stream) h.add(static_cast<uint64_t>(key));
  }
  result.info["stream_hash"] = h.hex();
  result.info["hot_set_size"] = std::to_string(hot_set().size());

  // The window runs in kSegments segments with a fresh set-up timed after
  // each (its server is not used).
  const double untraced_seconds = config.trace ? config.seconds / 2.0 : config.seconds;
  std::vector<size_t> positions(kClients, 0);
  ClosedLoop loop;
  for (size_t segment = 0; segment < kSegments; ++segment) {
    loop.merge(closed_loop(warm, streams, positions, untraced_seconds / kSegments, 0, result));
    WarmServer again;
    setups.time([&] { again = prewarm(options, false, result); });
  }
  const double throughput = static_cast<double>(loop.requests) / loop.wall_s;
  add_common_end_to_end(result, throughput, loop.latency, loop.latency, setups);
  result.detail = {{"throughput_rps", throughput, "1/s"},
                   {"latency_p50_ms", loop.latency.percentile(50.0) * 1e3, "ms"},
                   {"latency_p99_ms", loop.latency.percentile(99.0) * 1e3, "ms"}};

  // Hot-set responses against an out-of-server ChainSession solve.
  std::vector<std::pair<std::string, const std::vector<serve::RewardSeries>*>> candidates;
  for (size_t i = 0; i < hot_set().size(); ++i) {
    candidates.emplace_back(hot_set()[i].line, &warm.results[i]);
  }
  verify_sample(candidates, config.seed, result);

  if (config.trace) {
    std::vector<std::string> hot_lines;
    for (const HotRequest& hot : hot_set()) hot_lines.push_back(hot.line);
    begin_trace();
    const serve::ServerStats before = warm.server->stats();
    const ClosedLoop traced =
        closed_loop(warm, streams, positions, config.seconds / 2.0, kTracedRequestCap, result);
    const serve::ServerStats after = warm.server->stats();
    LayerValues values;
    replay_instances(hot_lines, values);
    const obs::Snapshot snapshot = obs::snapshot();
    end_trace();

    add_server_layers(before, after, values);
    add_phase_layers(traced.phases, values);
    add_registry_layers(snapshot, values);
    values["serve.cold_wait_s"] = 0.0;  // no misses on the hot path
    const double traced_per_request = traced.wall_s / static_cast<double>(traced.requests);
    const double untraced_per_request = loop.wall_s / static_cast<double>(loop.requests);
    values["obs.tracing_overhead"] = traced_per_request / untraced_per_request;
    emit_layers(values, result);
    write_trace_json(config, snapshot, result);
  }
  return result;
}

namespace {

struct ChurnPass {
  Histogram latency;
  Histogram hit_latency;
  Histogram cold_latency;
  PhaseTimes phases;
  std::vector<double> lateness_s;
  double latency_sum_s = 0.0;
  double miss_handle_s = 0.0;
  double wall_s = 0.0;
  size_t completed = 0;
  std::vector<std::optional<std::vector<serve::RewardSeries>>> cold_results;
};

/// Requests [begin, end) of `stream` through an open loop whose clock starts
/// at `offset_s` of the stream's schedule; the outcomes go into `pass`.
void churn_segment(const WarmServer& warm, const ChurnStream& stream, size_t begin, size_t end,
                   double offset_s, ChurnPass& pass, RunResult& result) {
  const size_t n = end - begin;
  std::vector<serve::Response> responses(n);
  std::vector<std::string> wires(n);
  std::vector<WireTiming> timings(n);
  std::vector<char> parsed(n, 0);
  std::vector<double> due_s(n);
  for (size_t j = 0; j < n; ++j) due_s[j] = stream.due_s[begin + j] - offset_s;
  const OpenLoopStats stats = run_open_loop(due_s, kClients, [&](size_t j, size_t) {
    bool ok = false;
    wires[j] = serve_line(*warm.server, stream.lines[begin + j], responses[j], ok, timings[j]);
    parsed[j] = ok ? 1 : 0;
  });

  pass.wall_s += stats.wall_s;
  pass.lateness_s.insert(pass.lateness_s.end(), stats.lateness_s.begin(), stats.lateness_s.end());
  for (size_t j = 0; j < n; ++j) {
    const size_t i = begin + j;
    const serve::Response& response = responses[j];
    const ChurnKind kind = stream.kinds[i];
    const double latency = stats.latency_s[j];
    pass.latency.add(latency);
    pass.latency_sum_s += latency;
    ++pass.completed;
    pass.phases.in.add(timings[j].in_s);
    pass.phases.out.add(timings[j].out_s);
    if (kind == ChurnKind::kInvalid) {
      result.check(!parsed[j] || !response.ok(),
                   "intended-invalid request was served: " + stream.lines[i]);
      continue;
    }
    if (kind == ChurnKind::kHot) {
      result.check(response.ok() && stable_part(wires[j]) == warm.expected[stream.hot_index[i]],
                   "hot request differs from its first cold response: " + stream.lines[i] +
                       " -> " + wires[j]);
    } else {
      result.check(response.ok(), "request refused: " + stream.lines[i] + " -> " + wires[j]);
    }
    if (!response.ok()) continue;
    if (response.cache_hit) {
      pass.hit_latency.add(latency);
      pass.phases.hit_handle.add(timings[j].handle_s);
    } else {
      pass.cold_latency.add(latency);
      pass.miss_handle_s += timings[j].handle_s;
      if (kind != ChurnKind::kHot) pass.cold_results[i] = response.results;
    }
  }
}

/// The whole `seconds`-long stream in `segments` segments of equal schedule
/// time, with `between` called, untimed, after each.
ChurnPass churn_pass(const WarmServer& warm, const ChurnStream& stream, double seconds,
                     size_t segments, const std::function<void()>& between, RunResult& result) {
  ChurnPass pass;
  pass.cold_results.resize(stream.lines.size());
  size_t begin = 0;
  for (size_t k = 0; k < segments; ++k) {
    const double until = seconds * static_cast<double>(k + 1) / static_cast<double>(segments);
    const size_t end =
        k + 1 == segments
            ? stream.due_s.size()
            : static_cast<size_t>(std::lower_bound(stream.due_s.begin(), stream.due_s.end(), until) -
                                  stream.due_s.begin());
    churn_segment(warm, stream, begin, end,
                  seconds * static_cast<double>(k) / static_cast<double>(segments), pass, result);
    begin = end;
    between();
  }
  return pass;
}

}  // namespace

double churn_capacity(const RunConfig& config, size_t requests) {
  RunResult scratch;
  const WarmServer warm = churn_prewarm(scratch);
  // The arrival times are ignored: 4 clients take the next request as soon
  // as they are free (a closed loop over the churn mix).
  const ChurnStream stream = churn_stream(config.seed, static_cast<double>(requests), 1.0);
  std::atomic<size_t> next{0};
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t i = next++; i < stream.lines.size(); i = next++) {
        serve::Response response;
        bool parsed = false;
        WireTiming timing;
        (void)serve_line(*warm.server, stream.lines[i], response, parsed, timing);
      }
    });
  }
  for (std::thread& client : clients) client.join();
  return static_cast<double>(stream.lines.size()) / seconds_between(start, Clock::now());
}

RunResult run_serve_churn(const RunConfig& config) {
  RunResult result;
  SetupTimer setups(config.process_start);
  WarmServer warm;
  setups.time([&] { warm = churn_prewarm(result); });
  // The window runs in kSegments segments with a fresh set-up timed after
  // each; the last one serves the traced pass.
  WarmServer spare;
  const auto set_up_again = [&] {
    spare = WarmServer{};  // at most two servers alive, so peak RSS does not vary
    setups.time([&] { spare = churn_prewarm(result); });
  };

  const double untraced_seconds = config.trace ? config.seconds / 2.0 : config.seconds;
  const ChurnStream stream = churn_stream(config.seed, kChurnRate, untraced_seconds);
  result.info["stream_hash"] = stream_hash(stream);
  result.info["arrival_rate_rps"] = num(kChurnRate);
  result.info["requests"] = std::to_string(stream.lines.size());

  const ChurnPass pass = churn_pass(warm, stream, untraced_seconds, kSegments, set_up_again, result);
  const double throughput = static_cast<double>(pass.completed) / pass.wall_s;
  // The gated median is that of the cache hits, one program path. Over all
  // requests the median falls where the 70% hits give way to cold solves,
  // so it swings with whichever kind sits there; the tail covers them all.
  add_common_end_to_end(result, throughput, pass.hit_latency, pass.latency, setups);
  result.detail = {
      {"throughput_rps", throughput, "1/s"},
      {"request_latency_p50_ms", pass.latency.percentile(50.0) * 1e3, "ms"},
      {"latency_p99_ms", pass.latency.percentile(99.0) * 1e3, "ms"},
      {"hit_latency_p99_ms", pass.hit_latency.percentile(99.0) * 1e3, "ms"},
      {"cold_latency_p50_ms", pass.cold_latency.percentile(50.0) * 1e3, "ms"},
      {"dispatch_late_p99_ms", percentile(pass.lateness_s, 99.0) * 1e3, "ms"},
      {"dispatch_late_max_ms",
       *std::max_element(pass.lateness_s.begin(), pass.lateness_s.end()) * 1e3, "ms"},
  };
  result.info["hit_samples"] = std::to_string(pass.hit_latency.count());
  result.info["cold_samples"] = std::to_string(pass.cold_latency.count());

  std::vector<std::pair<std::string, const std::vector<serve::RewardSeries>*>> candidates;
  for (size_t i = 0; i < stream.lines.size(); ++i) {
    if (pass.cold_results[i]) candidates.emplace_back(stream.lines[i], &*pass.cold_results[i]);
  }
  verify_sample(candidates, config.seed, result);

  if (config.trace) {
    const ChurnStream traced_stream = churn_stream(config.seed, kChurnRate, config.seconds / 2.0);
    begin_trace();
    const serve::ServerStats before = spare.server->stats();
    const ChurnPass traced =
        churn_pass(spare, traced_stream, config.seconds / 2.0, 1, [] {}, result);
    const serve::ServerStats after = spare.server->stats();
    const obs::Snapshot served = obs::snapshot();
    std::vector<std::string> new_instances;
    for (size_t i = 0; i < traced_stream.lines.size(); ++i) {
      if (traced_stream.kinds[i] == ChurnKind::kNewPoint ||
          traced_stream.kinds[i] == ChurnKind::kNewTemplate) {
        new_instances.push_back(traced_stream.lines[i]);
      }
    }
    LayerValues values;
    replay_instances(new_instances, values);
    const obs::Snapshot snapshot = obs::snapshot();
    end_trace();

    add_server_layers(before, after, values);
    add_phase_layers(traced.phases, values);
    add_registry_layers(snapshot, values);
    values["serve.cold_wait_s"] = std::max(0.0, traced.miss_handle_s - pool_solver_s(served));
    values["obs.tracing_overhead"] =
        (traced.latency_sum_s / static_cast<double>(traced.latency.count())) /
        (pass.latency_sum_s / static_cast<double>(pass.latency.count()));
    emit_layers(values, result);
    write_trace_json(config, snapshot, result);
  }
  return result;
}

}  // namespace perfbench
