// Self-tests of the benchmark's own machinery: generator determinism, the
// percentile rule, and open-loop lateness accounting. Exit 0 when all pass.
//
//   gop_perfbench_selftest      (or: python3 perfbench/run.py --selftest)

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "  ok  " : "  FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_generators_are_deterministic() {
  std::printf("generator determinism\n");
  const auto streams = [](uint64_t seed) {
    StreamHash h;
    for (const auto& stream : hot_key_streams(seed, 4, 4096)) {
      for (uint32_t key : stream) h.add(static_cast<uint64_t>(key));
    }
    return h.hex();
  };
  expect(streams(7) == streams(7), "serve-hot key streams repeat for one seed");
  expect(streams(7) != streams(8), "serve-hot key streams differ across seeds");

  const ChurnStream a = churn_stream(7, 60.0, 5.0);
  const ChurnStream b = churn_stream(7, 60.0, 5.0);
  const ChurnStream c = churn_stream(8, 60.0, 5.0);
  expect(stream_hash(a) == stream_hash(b), "serve-churn stream repeats for one seed");
  expect(stream_hash(a) != stream_hash(c), "serve-churn stream differs across seeds");
  expect(a.lines.size() == 300, "serve-churn sends rate x seconds requests");
  bool sorted = true;
  for (size_t i = 1; i < a.due_s.size(); ++i) sorted = sorted && a.due_s[i - 1] <= a.due_s[i];
  expect(sorted && a.due_s.back() < 5.0, "serve-churn arrivals are ordered within the window");
  // 10000 arrivals are whole blocks, so the shares are exact for any seed.
  for (uint64_t seed : {3, 4}) {
    size_t kinds[5] = {};
    for (ChurnKind kind : churn_stream(seed, 200.0, 50.0).kinds) ++kinds[static_cast<int>(kind)];
    expect(kinds[0] == 7000, "serve-churn mix is 70% hot-set requests");
    expect(kinds[1] + kinds[2] + kinds[3] == 2500, "serve-churn mix is 25% never-seen requests");
    expect(kinds[4] == 500, "serve-churn mix is 5% invalid requests");
  }

  expect(paper_grid_hash(paper_grid(7, 300)) == paper_grid_hash(paper_grid(7, 300)),
         "study-paper grid repeats for one seed");
  expect(paper_grid_hash(paper_grid(7, 300)) != paper_grid_hash(paper_grid(8, 300)),
         "study-paper grid differs across seeds");
  expect(scale_inputs_hash(scale_inputs(7)) == scale_inputs_hash(scale_inputs(7)),
         "study-scale inputs repeat for one seed");
  expect(scale_inputs_hash(scale_inputs(7)) != scale_inputs_hash(scale_inputs(8)),
         "study-scale inputs differ across seeds");
}

void test_percentile_rule() {
  std::printf("percentile rule\n");
  const auto ramp = [](size_t n) {
    std::vector<double> v;
    for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));  // unsorted input
    return v;
  };
  TailPoint t = tail_percentile(ramp(1000));
  expect(t.percentile == 99.0 && t.value == 990.0 && t.beyond == 10 && t.samples == 1000,
         "1000 samples: p99 = 990 with 10 beyond");
  t = tail_percentile(ramp(10000));
  expect(t.percentile == 99.0 && t.value == 9900.0 && t.beyond == 100,
         "10000 samples: p99, the highest percentile taken");
  t = tail_percentile(ramp(999));
  expect(t.percentile == 95.0 && t.beyond >= 10, "999 samples: p99 has 9 beyond, falls to p95");
  t = tail_percentile(ramp(20));
  expect(t.percentile == 50.0 && t.value == 10.0 && t.beyond == 10, "20 samples: p50");
  t = tail_percentile(ramp(3));
  expect(t.percentile == 100.0 && t.value == 3.0 && t.beyond == 0 && t.samples == 3,
         "3 samples: the maximum, nothing beyond");
  expect(median(ramp(5)) == 3.0 && percentile(ramp(100), 99.0) == 99.0,
         "nearest-rank median and p99");
}

void test_open_loop_lateness() {
  std::printf("open-loop lateness accounting\n");
  // Twenty requests due 1 ms apart, one client; the first stalls 50 ms. Timed
  // from their due time, the requests behind it carry the stall.
  std::vector<double> due;
  for (int i = 0; i < 20; ++i) due.push_back(0.001 * i);
  const OpenLoopStats stats = run_open_loop(due, 1, [](size_t i, size_t) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  bool charged = true;
  for (size_t i = 1; i < due.size(); ++i) {
    charged = charged && stats.latency_s[i] >= 0.050 - due[i] - 0.002;
  }
  expect(stats.latency_s[0] >= 0.050, "the stalled request is charged its own stall");
  expect(charged, "every request queued behind the stall is charged the wait");
  expect(stats.lateness_s[10] >= 0.040 - 0.002, "the wait shows as dispatch lateness");
  expect(stats.wall_s >= 0.050, "the run's wall time covers the stall");

  // Same schedule with a second client: the stall occupies one client only,
  // so the schedule is kept and nothing behind the stall pays for it. The
  // margin is well under the 40+ ms a queued request would carry, and wide
  // enough for a thread wake-up on a loaded host.
  const OpenLoopStats two = run_open_loop(due, 2, [](size_t i, size_t) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
  });
  double max_late = 0.0;
  for (size_t i = 1; i < due.size(); ++i) max_late = std::max(max_late, two.lateness_s[i]);
  expect(max_late < 0.020, "with a free client the schedule is kept during the stall");
}

}  // namespace

int main() {
  test_generators_are_deterministic();
  test_percentile_rule();
  test_open_loop_lateness();
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
