// Tests of the driver's own helpers: the percentile helper, metric-name
// validation, the result line and the exit status. Plain asserting main(),
// so the test needs nothing beyond the driver's own library; run it with
// ctest --test-dir <build dir>, or python3 perfbench/tests/test_run.py.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "common.h"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> samples;
  for (int i = n; i >= 1; --i) samples.push_back(double(i));  // unsorted
  return samples;
}

}  // namespace

int main() {
  using namespace gw::perfbench;

  // Nearest rank: the p-th percentile of 1..100 is p.
  expect(percentile(one_to(100), 0.5) == 50.0, "p50 of 1..100 is 50");
  expect(percentile(one_to(100), 0.99) == 99.0, "p99 of 1..100 is 99");
  expect(percentile(one_to(100), 1.0) == 100.0, "p100 is the maximum");
  expect(percentile({}, 0.5) == 0.0, "an empty sample set reads 0");
  expect(percentile({7.0}, 0.99) == 7.0, "one sample is every percentile");
  expect(median(one_to(5)) == 3.0, "median of 1..5 is 3");

  expect(samples_beyond(1000, 0.99) == 10, "p99 of 1000 has 10 beyond it");
  expect(samples_beyond(999, 0.99) == 9, "p99 of 999 has 9 beyond it");
  expect(samples_beyond(200, 0.95) == 10, "p95 of 200 has 10 beyond it");
  expect(samples_beyond(0, 0.5) == 0, "no samples, none beyond");

  // The highest percentile with at least ten samples beyond it.
  Tail tail = summarize(one_to(1000));
  expect(tail.tail_p == 0.99 && tail.tail == 990.0,
         "1000 samples report p99");
  expect(tail.samples == 1000 && tail.p50 == 500.0,
         "the summary carries the sample count and median");
  tail = summarize(one_to(999));
  expect(tail.tail_p == 0.95 && tail.tail == 950.0,
         "999 samples fall back to p95");
  tail = summarize(one_to(100));
  expect(tail.tail_p == 0.9 && tail.tail == 90.0, "100 samples report p90");
  tail = summarize(one_to(50));
  expect(tail.tail_p == 0.5 && tail.tail == 25.0,
         "50 samples support only the median");
  tail = summarize(one_to(1'000'000));
  expect(tail.tail_p == 0.99, "the tail stops at p99 however many samples");

  // Metric names: [A-Za-z0-9_.-]+, starting with a letter or digit.
  expect(valid_metric_name("sim.dispatch_ns"), "dotted name is valid");
  expect(valid_metric_name("setup_s"), "plain name is valid");
  expect(valid_metric_name("p99-9.x_Y"), "dash, dot, underscore allowed");
  expect(!valid_metric_name(""), "empty name is invalid");
  expect(!valid_metric_name(".hidden"), "leading dot is invalid");
  expect(!valid_metric_name("a b"), "space is invalid");
  expect(!valid_metric_name("a/b"), "slash is invalid");
  expect(!valid_metric_name("\"q\""), "quote is invalid");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters is too long");

  MetricTable table;
  table.set("ok.metric", "ms", 1.5);
  table.set("bad name", "ms", 1.0);
  table.set("nan.metric", "ms", std::nan(""));
  expect(table.all().size() == 1 && table.all().count("ok.metric") == 1,
         "only the well-formed, finite metric is kept");
  expect(table.errors().size() == 2, "each rejected metric is an error");

  // The result line and the exit status.
  Outcome good;
  good.attempted = 10;
  good.metrics.set("setup_s", "s", 0.25);
  expect(exit_code(good) == 0, "a clean run exits 0");
  expect(result_json(good) ==
             "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
             "\"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}",
         "the result line has exactly correct/attempted/failed/metrics");

  Outcome mismatch = good;
  mismatch.fail(10, "season: pinned digest mismatch");
  expect(exit_code(mismatch) != 0, "a digest mismatch exits non-zero");
  expect(result_json(mismatch).find("\"correct\": false") == 0 + 1,
         "a digest mismatch reads correct: false");

  Outcome missing = good;
  missing.fail(0, "metric x was not reported");
  expect(exit_code(missing) != 0, "a missing metric exits non-zero");

  Outcome empty;
  expect(exit_code(empty) != 0, "a run that attempted nothing exits non-zero");

  if (g_failures == 0) std::printf("perfbench helpers: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
