#pragma once

/// \file trace.hh
/// The traced run: turns on gop::obs, turns its span tree, counters and
/// solver events into the per-layer metrics, and dumps them as JSON.
///
/// The benchmark wraps each public library call it makes in an
/// obs::ScopedSpan named "bench.<module>.<call>"; the library's own spans
/// ("markov.*", "san.chain_session", "core.*", "sim.*") nest under them on the
/// calling thread, or sit at the root when they run on a pool thread. A
/// node's self time is its wall time minus the wall time of its children.

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"
#include "obs/registry.hh"

namespace perfbench {

/// Name and unit of every per-layer metric, in BENCHMARK.json order. A traced
/// run reports each of them; a layer that did no work reports 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_catalog();

/// Enables tracing with an empty registry and an event buffer large enough
/// that nothing is dropped.
void begin_trace();
void end_trace();

struct SpanTotals {
  double wall_s = 0.0;
  double self_s = 0.0;
};

/// Span totals aggregated by name over the whole tree.
std::map<std::string, SpanTotals> span_totals(const gop::obs::SpanNode& root);

/// Per-layer values a workload measured itself (codec timings, replays, ...)
/// merged with the ones derived from the registry. Missing names become 0.
using LayerValues = std::map<std::string, double>;

/// Fills the markov / linalg / core / sim / par / obs layers from `snapshot`
/// (the registry state at the end of the traced pass, reset at its start).
void add_registry_layers(const gop::obs::Snapshot& snapshot, LayerValues& values);

/// Converts `values` into result.layers in catalog order.
void emit_layers(const LayerValues& values, RunResult& result);

/// Writes the span tree (with self times), the counters, the events and the
/// per-layer metrics as one JSON document.
void write_trace_json(const RunConfig& config, const gop::obs::Snapshot& snapshot,
                      const RunResult& result);

}  // namespace perfbench
