#pragma once

/// \file common.hh
/// Shared pieces of the repo benchmark: the run configuration and result
/// record every workload fills, the seeded generator primitives, the
/// percentile rule, the open-loop dispatcher and small process probes.

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- run configuration and result -----------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string golden_dir;  ///< tests/golden of the checkout under test
  std::string trace_out;   ///< where the traced run writes its JSON dump
  std::string provenance;  ///< JSON object copied into the trace dump
  Clock::time_point process_start;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages
  /// The gated end-to-end metrics (BENCHMARK.json "end_to_end").
  std::vector<Metric> end_to_end;
  /// Workload-specific end-to-end figures, printed but not gated.
  std::vector<Metric> detail;
  /// Per-layer metrics from the traced run (BENCHMARK.json "per_layer").
  std::vector<Metric> layers;
  /// Free-form provenance of the generated inputs (stream hash, rates, ...).
  std::map<std::string, std::string> info;

  void fail(const std::string& message);
  /// One attempted operation; a false `ok` counts it failed with `message`.
  void check(bool ok, const std::string& message);
};

// --- set-up timing --------------------------------------------------------

/// Measured windows are cut into this many segments, with a set-up re-run
/// after each (see SetupTimer).
inline constexpr size_t kSegments = 10;

/// setup_s: the median of repeated set-ups spread over the run. The first is
/// timed from process start, the others are re-run between measured segments,
/// so that neither process start nor the host's noisy first second nor one
/// slow spell becomes the figure.
class SetupTimer {
 public:
  explicit SetupTimer(Clock::time_point process_start) : process_start_(process_start) {}

  /// Runs `setup` and records how long it took. Later samples may run it
  /// `repeats` times back to back and record the mean, which evens out the
  /// host's millisecond-scale jitter on set-ups that take only milliseconds.
  template <typename Fn>
  void time(Fn&& setup, size_t repeats = 1) {
    if (samples_.empty()) repeats = 1;
    const Clock::time_point start = samples_.empty() ? process_start_ : Clock::now();
    for (size_t i = 0; i < repeats; ++i) setup();
    samples_.push_back(seconds_between(start, Clock::now()) / static_cast<double>(repeats));
  }

  double median_s() const;
  size_t count() const { return samples_.size(); }

 private:
  Clock::time_point process_start_;
  std::vector<double> samples_;
};

// --- seeded generation ----------------------------------------------------

/// SplitMix64: the benchmark's own generator, so request streams do not
/// depend on any library RNG that a change under test might touch.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  double uniform();  ///< [0, 1)
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  uint64_t index(uint64_t n) { return next() % n; }

 private:
  uint64_t state_;
};

/// Mixes a workload seed with a stream label into an independent seed.
uint64_t derive_seed(uint64_t seed, std::string_view label, uint64_t index = 0);

/// Zipf(s) over ranks 0..n-1 by inverse CDF.
class Zipf {
 public:
  Zipf(size_t n, double exponent);
  size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Order-sensitive FNV-1a over a sequence of strings/integers; the recorded
/// request-stream hash.
class StreamHash {
 public:
  void add(std::string_view text);
  void add(uint64_t value);
  uint64_t digest() const { return state_; }
  std::string hex() const;

 private:
  uint64_t state_ = 0xcbf29ce484222325ULL;
};

// --- percentiles ----------------------------------------------------------

/// The tail rule: the highest of the standard percentiles that still has at
/// least `min_beyond` samples above its rank (nearest-rank definition).
/// With fewer than 2 * min_beyond samples no standard percentile qualifies
/// and the maximum is reported (percentile 100, nothing beyond).
struct TailPoint {
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
  size_t beyond = 0;
};

/// Nearest-rank percentile of unsorted `values` (copied); 0 when empty.
double percentile(std::vector<double> values, double pct);
TailPoint tail_percentile(std::vector<double> values, size_t min_beyond = 10);
double median(std::vector<double> values);

/// Latency histogram with log-spaced buckets 0.5% wide (100 ns to ~1000 s):
/// fixed memory however many requests a run completes, percentiles within
/// 0.5% of the exact nearest-rank value.
class Histogram {
 public:
  Histogram();
  void add(double seconds);
  void merge(const Histogram& other);
  uint64_t count() const { return count_; }
  double percentile(double pct) const;
  TailPoint tail(size_t min_beyond = 10) const;

 private:
  /// Value of the sample at 0-based rank `index`.
  double at_rank(uint64_t index) const;

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// --- open-loop dispatch ---------------------------------------------------

/// Outcome of one open-loop run: per-request latency measured from the
/// request's *due* time (so a stall charges its wait to every request queued
/// behind it) and how late each request was dispatched.
struct OpenLoopStats {
  std::vector<double> latency_s;   ///< indexed like `due_s`
  std::vector<double> lateness_s;  ///< dispatch time minus due time
  double wall_s = 0.0;             ///< first due time to last completion
};

/// Open loop over a fixed schedule: request i is due at due_s[i] (seconds
/// after start, non-decreasing) whatever the state of earlier requests; the
/// first free of `clients` threads dispatches it at its due time, or late
/// when all were busy, calling serve(i, client). Blocks until every request
/// has completed.
OpenLoopStats run_open_loop(const std::vector<double>& due_s, size_t clients,
                            const std::function<void(size_t, size_t)>& serve);

// --- process probes -------------------------------------------------------

double peak_rss_mb();
double process_cpu_s();
/// Flat {"key": number} golden documents as tests/golden_regression_test.cc
/// writes them.
std::map<std::string, double> read_golden(const std::string& path);

/// JSON number text with all significant digits.
std::string json_number(double value);
std::string json_escape(std::string_view text);

}  // namespace perfbench
