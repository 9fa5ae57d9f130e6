#include "trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>

#include "obs/obs.hh"

namespace perfbench {

namespace obs = gop::obs;

const std::vector<std::pair<std::string, std::string>>& per_layer_catalog() {
  static const std::vector<std::pair<std::string, std::string>> catalog = {
      {"serve.codec_in_us_p50", "us"},
      {"serve.codec_in_us_p99", "us"},
      {"serve.codec_out_us_p50", "us"},
      {"serve.codec_out_us_p99", "us"},
      {"serve.handle_hit_us_p50", "us"},
      {"serve.handle_hit_us_p99", "us"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.evictions", "count"},
      {"serve.instance_evictions", "count"},
      {"serve.chain_builds", "count"},
      {"serve.coalesced", "count"},
      {"serve.rejected", "count"},
      {"serve.errors", "count"},
      {"serve.cold_wait_s", "s"},
      {"lint.admission_ms", "ms"},
      {"lint.admissions", "count"},
      {"san.generate_ms", "ms"},
      {"san.states", "count"},
      {"san.states_per_s", "1/s"},
      {"markov.transient_self_s", "s"},
      {"markov.accumulated_self_s", "s"},
      {"markov.uniformization_steps", "count"},
      {"markov.krylov_substeps", "count"},
      {"markov.engine_sparse_share", "ratio"},
      {"markov.expm_count", "count"},
      {"markov.expm_self_s", "s"},
      {"markov.expm_workspace_allocs", "count"},
      {"markov.recovery_retries", "count"},
      {"markov.recovery_fallbacks", "count"},
      {"linalg.expm_flops_computed", "flop"},
      {"core.analyzer_construction_ms", "ms"},
      {"core.evaluate_batch_ms", "ms"},
      {"core.optimum_ms", "ms"},
      {"core.evaluations", "count"},
      {"core.structural_cells", "count"},
      {"sim.replications", "count"},
      {"sim.run_replications_s", "s"},
      {"par.tasks_executed", "count"},
      {"par.utilization", "ratio"},
      {"obs.dropped_events", "count"},
      {"obs.tracing_overhead", "ratio"},
  };
  return catalog;
}

void begin_trace() {
  obs::set_enabled(false);
  obs::reset();
  obs::set_max_events(size_t{1} << 22);
  obs::set_enabled(true);
}

void end_trace() { obs::set_enabled(false); }

namespace {

void accumulate(const obs::SpanNode& node, std::map<std::string, SpanTotals>& totals) {
  uint64_t children_ns = 0;
  for (const obs::SpanNode& child : node.children) {
    children_ns += child.wall_ns;
    accumulate(child, totals);
  }
  SpanTotals& t = totals[node.name];
  t.wall_s += static_cast<double>(node.wall_ns) * 1e-9;
  t.self_s += static_cast<double>(node.wall_ns - std::min(node.wall_ns, children_ns)) * 1e-9;
}

double self_of(const std::map<std::string, SpanTotals>& totals,
               std::initializer_list<const char*> names) {
  double sum = 0.0;
  for (const char* name : names) {
    const auto it = totals.find(name);
    if (it != totals.end()) sum += it->second.self_s;
  }
  return sum;
}

double wall_of(const std::map<std::string, SpanTotals>& totals, const char* name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.wall_s;
}

uint64_t counter_of(const obs::Snapshot& snapshot, const char* name) {
  const auto it = snapshot.counters.find(name);
  return it == snapshot.counters.end() ? 0 : it->second;
}

void write_span(std::ofstream& out, const obs::SpanNode& node, int depth) {
  uint64_t children_ns = 0;
  for (const obs::SpanNode& child : node.children) children_ns += child.wall_ns;
  out << std::string(static_cast<size_t>(depth) * 2, ' ') << "{\"name\": \""
      << json_escape(node.name) << "\", \"count\": " << node.count
      << ", \"wall_s\": " << json_number(static_cast<double>(node.wall_ns) * 1e-9)
      << ", \"self_s\": "
      << json_number(static_cast<double>(node.wall_ns - std::min(node.wall_ns, children_ns)) *
                     1e-9)
      << ", \"cpu_s\": " << json_number(static_cast<double>(node.cpu_ns) * 1e-9)
      << ", \"children\": [";
  for (size_t i = 0; i < node.children.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n");
    write_span(out, node.children[i], depth + 1);
  }
  out << "]}";
}

}  // namespace

std::map<std::string, SpanTotals> span_totals(const obs::SpanNode& root) {
  std::map<std::string, SpanTotals> totals;
  for (const obs::SpanNode& child : root.children) accumulate(child, totals);
  return totals;
}

void add_registry_layers(const obs::Snapshot& snapshot, LayerValues& values) {
  const std::map<std::string, SpanTotals> totals = span_totals(snapshot.root);

  values["markov.transient_self_s"] =
      self_of(totals, {"markov.transient_session", "markov.transient"});
  values["markov.accumulated_self_s"] =
      self_of(totals, {"markov.accumulated_session", "markov.accumulated"});
  values["markov.expm_self_s"] = self_of(totals, {"markov.expm"});
  values["markov.expm_count"] = static_cast<double>(counter_of(snapshot, "markov.matrix_exponentials"));
  values["markov.expm_workspace_allocs"] =
      static_cast<double>(counter_of(snapshot, "markov.expm_workspace_allocs"));
  values["markov.recovery_retries"] =
      static_cast<double>(counter_of(snapshot, "markov.recovery.retries"));
  values["markov.recovery_fallbacks"] =
      static_cast<double>(counter_of(snapshot, "markov.recovery.fallbacks"));

  double uniformization_steps = 0.0;
  double krylov_substeps = 0.0;
  double expm_flops = 0.0;
  double sparse = 0.0;
  double with_storage = 0.0;
  for (const obs::SolverEvent& event : snapshot.events) {
    switch (event.kind) {
      case obs::SolverEventKind::kUniformizationPass:
        uniformization_steps += static_cast<double>(event.iterations);
        break;
      case obs::SolverEventKind::kKrylovPass:
        krylov_substeps += static_cast<double>(event.iterations);
        break;
      case obs::SolverEventKind::kMatrixExponential: {
        // Computed, not counted: Pade-13 forms U and V with 6 products, then
        // one LU solve with n right-hand sides, then one product per
        // squaring — n^3 * (2 * (6 + s) + 2/3 + 2).
        const double n = static_cast<double>(event.states);
        const double s = static_cast<double>(event.iterations);
        expm_flops += n * n * n * (2.0 * (6.0 + s) + 8.0 / 3.0);
        break;
      }
      case obs::SolverEventKind::kTransient:
      case obs::SolverEventKind::kAccumulated:
      case obs::SolverEventKind::kSteadyState:
      case obs::SolverEventKind::kTransientSession:
      case obs::SolverEventKind::kAccumulatedSession:
        if (!event.storage.empty()) {
          with_storage += 1.0;
          if (event.storage == "sparse") sparse += 1.0;
        }
        break;
      default:
        break;
    }
  }
  values["markov.uniformization_steps"] = uniformization_steps;
  values["markov.krylov_substeps"] = krylov_substeps;
  values["markov.engine_sparse_share"] = with_storage > 0.0 ? sparse / with_storage : 0.0;
  values["linalg.expm_flops_computed"] = expm_flops;

  values["core.analyzer_construction_ms"] = wall_of(totals, "core.analyzer_construction") * 1e3;
  values["core.evaluate_batch_ms"] = wall_of(totals, "core.evaluate_batch") * 1e3;
  values["core.structural_cells"] =
      static_cast<double>(counter_of(snapshot, "core.structural_cells"));

  values["sim.replications"] = static_cast<double>(counter_of(snapshot, "sim.replications"));
  values["sim.run_replications_s"] = wall_of(totals, "sim.run_replications");

  values["par.tasks_executed"] = static_cast<double>(counter_of(snapshot, "par.tasks_executed"));
  values["obs.dropped_events"] = static_cast<double>(snapshot.dropped_events);
}

void emit_layers(const LayerValues& values, RunResult& result) {
  for (const auto& [name, unit] : per_layer_catalog()) {
    const auto it = values.find(name);
    result.layers.push_back({name, it == values.end() ? 0.0 : it->second, unit});
  }
}

void write_trace_json(const RunConfig& config, const obs::Snapshot& snapshot,
                      const RunResult& result) {
  if (config.trace_out.empty()) return;
  std::ofstream out(config.trace_out, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", config.trace_out.c_str());
    return;
  }
  out << "{\n\"workload\": \"" << json_escape(config.workload) << "\",\n\"seed\": " << config.seed
      << ",\n\"provenance\": " << (config.provenance.empty() ? "{}" : config.provenance)
      << ",\n\"info\": {";
  bool first = true;
  for (const auto& [key, value] : result.info) {
    out << (first ? "" : ", ") << "\"" << json_escape(key) << "\": \"" << json_escape(value)
        << "\"";
    first = false;
  }
  out << "},\n\"per_layer\": {";
  first = true;
  for (const Metric& m : result.layers) {
    out << (first ? "\n" : ",\n") << "  \"" << m.name << "\": {\"value\": " << json_number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  out << "},\n\"counters\": {";
  first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out << (first ? "\n" : ",\n") << "  \"" << json_escape(name) << "\": " << value;
    first = false;
  }
  out << "},\n\"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out << (first ? "\n" : ",\n") << "  \"" << json_escape(name) << "\": " << value;
    first = false;
  }
  out << "},\n\"dropped_events\": " << snapshot.dropped_events << ",\n\"spans\":\n";
  write_span(out, snapshot.root, 0);
  // Request-log events (one per served request, hundreds of thousands on a
  // hot run) are summarized per outcome; every kind is counted; the first
  // kMaxWrittenEvents of the others are written out in full.
  constexpr size_t kMaxWrittenEvents = 2000;
  std::map<std::string, std::pair<uint64_t, double>> requests_by_outcome;
  std::map<std::string, uint64_t> events_by_kind;
  size_t written = 0;
  out << ",\n\"events\": [";
  first = true;
  for (const obs::SolverEvent& e : snapshot.events) {
    ++events_by_kind[obs::to_string(e.kind)];
    if (e.kind == obs::SolverEventKind::kServeRequest) {
      auto& [count, wall_ms] = requests_by_outcome[e.method];
      ++count;
      wall_ms += e.wall_ms;
      continue;
    }
    if (written++ >= kMaxWrittenEvents) continue;
    out << (first ? "\n" : ",\n") << "{\"kind\": \"" << obs::to_string(e.kind)
        << "\", \"method\": \"" << json_escape(e.method) << "\", \"storage\": \""
        << json_escape(e.storage) << "\", \"states\": " << e.states
        << ", \"t\": " << json_number(e.t) << ", \"iterations\": " << e.iterations
        << ", \"grid_points\": " << e.grid_points << ", \"retries\": " << e.retries
        << ", \"degraded\": " << (e.degraded ? "true" : "false")
        << ", \"wall_ms\": " << json_number(e.wall_ms) << ", \"detail\": \""
        << json_escape(e.detail) << "\"}";
    first = false;
  }
  out << "],\n\"events_by_kind\": {";
  first = true;
  for (const auto& [kind, count] : events_by_kind) {
    out << (first ? "\n" : ",\n") << "  \"" << kind << "\": " << count;
    first = false;
  }
  out << "},\n\"serve_request_events\": {";
  first = true;
  for (const auto& [outcome, totals] : requests_by_outcome) {
    out << (first ? "\n" : ",\n") << "  \"" << json_escape(outcome)
        << "\": {\"count\": " << totals.first
        << ", \"wall_ms_sum\": " << json_number(totals.second) << "}";
    first = false;
  }
  out << "}\n}\n";
}

}  // namespace perfbench
