#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

namespace gw::perfbench {

// --- percentiles -------------------------------------------------------------

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t n = samples.size();
  std::size_t rank = std::size_t(std::ceil(p * double(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + std::ptrdiff_t(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank = std::size_t(std::ceil(p * double(n) - 1e-9));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

Tail summarize(const std::vector<double>& samples) {
  Tail tail;
  tail.samples = samples.size();
  tail.p50 = percentile(samples, 0.5);
  tail.tail = tail.p50;
  for (const double p : {0.9, 0.95, 0.99}) {
    if (samples_beyond(samples.size(), p) < 10) break;
    tail.tail_p = p;
  }
  tail.tail = percentile(samples, tail.tail_p);
  return tail;
}

// --- host speed --------------------------------------------------------------

namespace {
volatile double g_calibration_sink = 0.0;
}  // namespace

double HostSpeed::sample() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> out;
    for (int i = 0; i < 64; ++i) {
      out.push_back("component" + std::to_string((i * 37) % 64));
    }
    return out;
  }();
  static std::map<std::string, double> table = [] {
    std::map<std::string, double> out;
    for (const std::string& key : keys) out[key] = 0.0;
    return out;
  }();
  const std::int64_t start = now_ns();
  double acc = 0.0;
  for (int i = 0; i < 3000; ++i) {
    double& value = table.find(keys[std::size_t(i & 63)])->second;
    value += std::exp(-double(i & 255) * 1e-3) * std::sin(double(i) * 1e-3);
    acc += value + std::pow(1.0001, double(i & 127));
  }
  g_calibration_sink = g_calibration_sink + acc;
  loop_ms_.push_back(double(now_ns() - start) * 1e-6);
  const std::size_t recent = std::min(loop_ms_.size(), kWindow);
  return kNominalMs /
         median(std::vector<double>(loop_ms_.end() - std::ptrdiff_t(recent),
                                    loop_ms_.end()));
}

// --- metrics -----------------------------------------------------------------

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void MetricTable::set(const std::string& name, const std::string& unit,
                      double value) {
  if (!valid_metric_name(name)) {
    errors_.push_back("malformed metric name '" + name + "'");
    return;
  }
  if (!std::isfinite(value)) {
    errors_.push_back("metric " + name + " is not finite");
    return;
  }
  metrics_[name] = Metric{unit, value};
}

// --- tracer ------------------------------------------------------------------

namespace {
thread_local std::uint32_t t_current_span = 0;
thread_local std::uint32_t t_thread_index = 0;
std::atomic<std::uint32_t> g_thread_counter{0};

std::uint32_t thread_index() {
  if (t_thread_index == 0) t_thread_index = ++g_thread_counter;
  return t_thread_index;
}
}  // namespace

Tracer::Span::Span(Tracer& tracer, std::uint32_t name) {
  if (!tracer.enabled()) return;
  tracer_ = &tracer;
  name_ = name;
  id_ = tracer.next_id();
  parent_ = t_current_span;
  t_current_span = id_;
  start_ns_ = now_ns();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = now_ns();
  t_current_span = parent_;
  tracer_->record(Record{name_, id_, parent_, thread_index(), start_ns_, end});
}

std::uint32_t Tracer::name(const std::string& span_name) {
  const std::lock_guard lock(mutex_);
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == span_name) return std::uint32_t(i);
  }
  names_.push_back(span_name);
  stored_per_name_.push_back(0);
  return std::uint32_t(names_.size() - 1);
}

std::uint32_t Tracer::next_id() {
  const std::lock_guard lock(mutex_);
  return ++last_id_;
}

void Tracer::record(const Record& record) {
  const std::lock_guard lock(mutex_);
  if (stored_per_name_[record.name] >= kMaxSpansPerName) {
    ++dropped_;
    return;
  }
  ++stored_per_name_[record.name];
  records_.push_back(record);
}

std::vector<double> Tracer::durations_ms(const std::string& span_name) const {
  const std::lock_guard lock(mutex_);
  std::vector<double> out;
  const auto it = std::find(names_.begin(), names_.end(), span_name);
  if (it == names_.end()) return out;
  const auto id = std::uint32_t(it - names_.begin());
  for (const Record& r : records_) {
    if (r.name == id) out.push_back(double(r.end_ns - r.start_ns) * 1e-6);
  }
  return out;
}

std::size_t Tracer::span_count() const {
  const std::lock_guard lock(mutex_);
  return records_.size();
}

namespace {
std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}
}  // namespace

bool Tracer::write_chrome_json(
    const std::string& path,
    const std::map<std::string, std::string>& meta) const {
  const std::lock_guard lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  out << "\"dropped_spans\":\"" << dropped_ << "\"";
  for (const auto& [key, value] : meta) {
    out << ",\"" << json_escape(key) << "\":\"" << json_escape(value) << "\"";
  }
  out << "},\"traceEvents\":[";
  char buf[96];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const std::string& name = names_[r.name];
    const std::string layer = name.substr(0, name.find('.'));
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f",
                  double(r.start_ns - origin_ns_) * 1e-3,
                  double(r.end_ns - r.start_ns) * 1e-3);
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << json_escape(name)
        << "\",\"cat\":\"" << json_escape(layer) << "\",\"ph\":\"X\",\"ts\":"
        << buf << ",\"pid\":1,\"tid\":" << r.thread << ",\"args\":{\"id\":"
        << r.id << ",\"parent\":" << r.parent << "}}";
  }
  out << "\n]}\n";
  return bool(out);
}

// --- host stamp --------------------------------------------------------------

HostStamp host_stamp() {
  HostStamp stamp;
#if defined(__clang__)
  stamp.compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
  stamp.compiler = "gcc " __VERSION__;
#else
  stamp.compiler = "unknown";
#endif
#ifdef PERFBENCH_BUILD_TYPE
  stamp.build_type = PERFBENCH_BUILD_TYPE;
#endif
#ifdef __OPTIMIZE__
  stamp.optimized = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  stamp.sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
  stamp.sanitized = true;
#endif
#endif
  stamp.nproc = std::max(1u, std::thread::hardware_concurrency());
  double load[1] = {0.0};
  if (getloadavg(load, 1) == 1) stamp.load_average = load[0];
  return stamp;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// --- run outcome -------------------------------------------------------------

std::string result_json(const Outcome& outcome) {
  const bool correct = exit_code(outcome) == 0;
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  bool first = true;
  char value[64];
  for (const auto& [name, metric] : outcome.metrics.all()) {
    std::snprintf(value, sizeof value, "%.17g", metric.value);
    out += first ? "" : ", ";
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           json_escape(metric.unit) + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

int exit_code(const Outcome& outcome) {
  const bool passed = outcome.attempted > 0 && outcome.failed == 0 &&
                      outcome.failures.empty() &&
                      outcome.metrics.errors().empty();
  return passed ? 0 : 1;
}

}  // namespace gw::perfbench
