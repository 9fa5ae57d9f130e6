#include "common.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/resource.h>
#include <time.h>

namespace perfbench {

void RunResult::fail(const std::string& message) {
  ++failed;
  if (failures.size() < 20) failures.push_back(message);
}

void RunResult::check(bool ok, const std::string& message) {
  ++attempted;
  if (!ok) fail(message);
}

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

uint64_t derive_seed(uint64_t seed, std::string_view label, uint64_t index) {
  StreamHash h;
  h.add(seed);
  h.add(label);
  h.add(index);
  return h.digest();
}

Zipf::Zipf(size_t n, double exponent) : cdf_(n) {
  double total = 0.0;
  for (size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::draw(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1);
}

void StreamHash::add(std::string_view text) {
  for (const char c : text) {
    state_ ^= static_cast<unsigned char>(c);
    state_ *= 0x100000001b3ULL;
  }
  add(static_cast<uint64_t>(text.size()));
}

void StreamHash::add(uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    state_ ^= (value >> (8 * i)) & 0xff;
    state_ *= 0x100000001b3ULL;
  }
}

std::string StreamHash::hex() const {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(state_));
  return buffer;
}

namespace {

/// Nearest-rank index (0-based) of percentile `pct` among `n` sorted values.
size_t rank_index(size_t n, double pct) {
  // The 1e-9 keeps representation error (0.999 * 10000 = 9990.000000000002)
  // from pushing an exact rank up by one.
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9);
  return static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(n))) - 1;
}

}  // namespace

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  const size_t index = rank_index(values.size(), pct);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double SetupTimer::median_s() const { return median(samples_); }

namespace {

/// The tail rule on `n` samples: which percentile, at which 0-based rank.
TailPoint tail_rank(size_t n, size_t min_beyond, size_t& index) {
  TailPoint out;
  out.samples = n;
  for (const double pct : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    index = rank_index(n, pct);
    if (n - 1 - index >= min_beyond) {
      out.percentile = pct;
      out.beyond = n - 1 - index;
      return out;
    }
  }
  index = n - 1;
  out.percentile = 100.0;
  out.beyond = 0;
  return out;
}

constexpr double kHistogramFloor = 1e-7;
constexpr double kHistogramStep = 1.005;
constexpr size_t kHistogramBuckets = 4800;

}  // namespace

TailPoint tail_percentile(std::vector<double> values, size_t min_beyond) {
  if (values.empty()) return TailPoint{};
  std::sort(values.begin(), values.end());
  size_t index = 0;
  TailPoint out = tail_rank(values.size(), min_beyond, index);
  out.value = values[index];
  return out;
}

Histogram::Histogram() : buckets_(kHistogramBuckets, 0) {}

void Histogram::add(double seconds) {
  const double position = std::log(std::max(seconds, kHistogramFloor) / kHistogramFloor) /
                          std::log(kHistogramStep);
  ++buckets_[std::min(static_cast<size_t>(position), kHistogramBuckets - 1)];
  ++count_;
}

void Histogram::merge(const Histogram& other) {
  for (size_t i = 0; i < kHistogramBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
}

double Histogram::at_rank(uint64_t index) const {
  uint64_t seen = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    seen += buckets_[i];
    if (seen > index) {
      // Geometric midpoint of the bucket.
      return kHistogramFloor * std::pow(kHistogramStep, static_cast<double>(i) + 0.5);
    }
  }
  return 0.0;
}

double Histogram::percentile(double pct) const {
  return count_ == 0 ? 0.0 : at_rank(rank_index(count_, pct));
}

TailPoint Histogram::tail(size_t min_beyond) const {
  if (count_ == 0) return TailPoint{};
  size_t index = 0;
  TailPoint out = tail_rank(count_, min_beyond, index);
  out.value = at_rank(index);
  return out;
}

OpenLoopStats run_open_loop(const std::vector<double>& due_s, size_t clients,
                            const std::function<void(size_t, size_t)>& serve) {
  OpenLoopStats stats;
  const size_t n = due_s.size();
  stats.latency_s.assign(n, 0.0);
  stats.lateness_s.assign(n, 0.0);
  if (n == 0) return stats;

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto due_at = [&](size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due_s[i]));
  };

  // Arrivals are claimed strictly in schedule order by whichever client is
  // free (a FIFO in front of `clients` servers). The claiming client sleeps
  // until shortly before the due time and spins the rest, so dispatch does
  // not pay a thread wake-up; an arrival that finds every client busy is
  // claimed late, and that wait is in its latency.
  std::atomic<size_t> next{0};
  std::vector<Clock::time_point> finished(clients, start);
  std::vector<std::thread> workers;
  workers.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      for (size_t i = next++; i < n; i = next++) {
        const Clock::time_point due = due_at(i);
        std::this_thread::sleep_until(due - std::chrono::microseconds(200));
        while (Clock::now() < due) {
        }
        stats.lateness_s[i] = seconds_between(due, Clock::now());
        serve(i, c);
        const Clock::time_point done = Clock::now();
        stats.latency_s[i] = seconds_between(due, done);
        finished[c] = std::max(finished[c], done);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  const Clock::time_point last = *std::max_element(finished.begin(), finished.end());
  stats.wall_s = seconds_between(due_at(0), last);
  return stats;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::map<std::string, double> read_golden(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  std::map<std::string, double> values;
  size_t pos = 0;
  while (true) {
    const size_t key_start = text.find('"', pos);
    if (key_start == std::string::npos) break;
    const size_t key_end = text.find('"', key_start + 1);
    if (key_end == std::string::npos) break;
    const size_t colon = text.find(':', key_end);
    if (colon == std::string::npos) break;
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + colon + 1, &end);
    values[text.substr(key_start + 1, key_end - key_start - 1)] = value;
    pos = static_cast<size_t>(end - text.c_str());
  }
  return values;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace perfbench
