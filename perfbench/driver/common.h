// Shared pieces of the benchmark driver: the host clock, the in-memory span
// tracer (written out as Chrome trace-event JSON), the percentile helper,
// the metric table every workload fills, and the build/host stamp.
//
// The driver measures the libraries from outside: every span here wraps a
// call the driver itself makes into a layer's public API. Nothing in src/
// is timed from the inside.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace gw::perfbench {

// --- clock ------------------------------------------------------------------

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_since(std::int64_t start_ns) {
  return double(now_ns() - start_ns) * 1e-9;
}

// --- percentiles -------------------------------------------------------------

// Nearest-rank percentile (p in [0, 1]) of unsorted samples; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> samples, double p);
[[nodiscard]] double median(std::vector<double> samples);

// How many samples lie beyond the nearest-rank p-th percentile of n.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

// A timing summary: the median plus the highest of the percentiles 50,
// 90, 95 and 99 that still has at least ten samples beyond it, and the
// sample count they came from. Deeper tails are left out on purpose: on a
// shared host they measure the scheduler, not the program.
struct Tail {
  double p50 = 0.0;
  double tail_p = 0.5;  // which percentile `tail` is
  double tail = 0.0;
  std::size_t samples = 0;
};
[[nodiscard]] Tail summarize(const std::vector<double>& samples);

// --- host speed --------------------------------------------------------------

// The speed the host runs code at right now. The shared hosts this runs on
// change speed by tens of percent over minutes (CPU frequency and
// neighbours); every timing the driver takes moves with them. A fixed
// calibration loop -- string-keyed map updates and libm calls, the kind of
// work the simulator's hot paths do, in code that never changes with the
// program -- is timed between the workload's steps, on the same thread.
// Timed runs report every duration scaled by kNominalMs / (median loop
// time nearby), i.e. as if the host ran the loop in kNominalMs: the same
// program on a slower phase of the host reads the same.
class HostSpeed {
 public:
  static constexpr double kNominalMs = 0.25;
  static constexpr std::size_t kWindow = 5;

  // Runs the calibration loop once (about kNominalMs), records its time,
  // and returns the scale for durations measured next: kNominalMs over the
  // median of the last kWindow loop times.
  double sample();
  [[nodiscard]] std::size_t samples() const { return loop_ms_.size(); }
  [[nodiscard]] double median_ms() const { return median(loop_ms_); }

 private:
  std::vector<double> loop_ms_;
};

// --- metrics -----------------------------------------------------------------

// Metric names: [A-Za-z0-9_.-]+, starting with a letter or digit, at most
// 64 characters.
[[nodiscard]] bool valid_metric_name(std::string_view name);

struct Metric {
  std::string unit;
  double value = 0.0;
};

// The metrics one run reports, by name. set() rejects malformed names and
// non-finite values, so a broken computation shows up as a failed run
// rather than as invalid JSON.
class MetricTable {
 public:
  void set(const std::string& name, const std::string& unit, double value);
  [[nodiscard]] const std::map<std::string, Metric>& all() const {
    return metrics_;
  }
  [[nodiscard]] const std::vector<std::string>& errors() const {
    return errors_;
  }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> errors_;
};

// --- tracer ------------------------------------------------------------------

// In-memory span recorder. Disabled, a Span costs one branch; enabled, it
// reads the clock twice and appends one record under a mutex (branches of
// a fork campaign close spans from pool threads). Parents are tracked per
// thread, so nested spans link to the span that caused them.
class Tracer {
 public:
  struct Record {
    std::uint32_t name = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    std::uint32_t thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  class Span {
   public:
    Span(Tracer& tracer, std::uint32_t name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_ = nullptr;  // null when tracing is off
    std::uint32_t name_ = 0;
    std::uint32_t id_ = 0;
    std::uint32_t parent_ = 0;
    std::int64_t start_ns_ = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_ns_(now_ns()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  // Interns a span name ("<layer>.<what>"); call once, outside hot loops.
  std::uint32_t name(const std::string& span_name);

  // Durations (ms) of every stored span with this name, in record order.
  [[nodiscard]] std::vector<double> durations_ms(
      const std::string& span_name) const;
  [[nodiscard]] std::size_t span_count() const;

  // Writes every stored span as Chrome trace-event JSON ("X" events, the
  // layer as the category). Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path,
                         const std::map<std::string, std::string>& meta) const;

  // Spans kept per name; the rest are counted, not stored, so a million
  // traced queries cannot exhaust memory.
  static constexpr std::size_t kMaxSpansPerName = 20000;

 private:
  void record(const Record& record);
  std::uint32_t next_id();

  bool enabled_;
  std::int64_t origin_ns_;
  mutable std::mutex mutex_;
  std::vector<std::string> names_;            // guarded by mutex_
  std::vector<std::size_t> stored_per_name_;  // guarded by mutex_
  std::vector<Record> records_;               // guarded by mutex_
  std::uint64_t dropped_ = 0;                 // guarded by mutex_
  std::uint32_t last_id_ = 0;                 // guarded by mutex_
};

// --- host stamp --------------------------------------------------------------

struct HostStamp {
  std::string compiler;
  std::string build_type;
  bool optimized = false;
  bool sanitized = false;
  unsigned nproc = 1;
  double load_average = 0.0;
};

[[nodiscard]] HostStamp host_stamp();

// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

// --- run outcome -------------------------------------------------------------

// What a workload reports back to main: the work it attempted and failed
// (station-days, branches, or queries plus ingest calls), the reasons for
// each failure, and its metrics.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  MetricTable metrics;

  void fail(std::uint64_t units, std::string why) {
    failed += units;
    failures.push_back(std::move(why));
  }
};

// The result line: one JSON object with exactly the keys correct,
// attempted, failed and metrics.
[[nodiscard]] std::string result_json(const Outcome& outcome);

// Exit status for a finished run: non-zero when nothing was attempted, or
// any unit failed its digest or invariant check, or a metric could not be
// reported. The result line's "correct" is true exactly when this is 0.
[[nodiscard]] int exit_code(const Outcome& outcome);

}  // namespace gw::perfbench
