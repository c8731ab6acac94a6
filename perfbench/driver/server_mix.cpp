// Workload "server_mix": the control plane with no kernel at all. One
// Southampton hub with 64 stations in 32 groups over 130 simulated days.
// Ingest writes (uploads, state reports, update beacons, an over-full
// bounded command queue, weekly compact_received) are interleaved with
// about a million client reads from one closed-loop caller: about 79 %
// station stats, 20 % group status, 0.4 % directory and 1 % corrupted
// wires. One query is encode request + handle_query + decode response.
#include <array>
#include <cstdio>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "proto/messages.h"
#include "station/southampton.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "workloads.h"

namespace gw::perfbench {
namespace {

// CRC of the served/refused/rejected counts and the response fold sums of
// the full-scale season on kDefaultSeed (the canonical line is printed).
constexpr std::uint32_t kPinnedDigest = 0x19245c1d;

constexpr int kStations = 64;
constexpr std::size_t kQueueLimit = 4;

struct Shape {
  int days;
  int queries_per_day;
};

Shape shape_of(Scale scale) {
  return scale == Scale::kFull ? Shape{130, 7700} : Shape{10, 1000};
}

enum Kind : std::uint8_t { kStats, kGroup, kDirectory, kCorrupt, kKinds };
constexpr std::array<const char*, kKinds> kKindNames{"stats", "group",
                                                     "directory", "corrupt"};
enum Ingest : std::uint8_t { kFile, kReport, kBeacon, kQueue, kIngests };
constexpr std::array<const char*, kIngests> kIngestNames{"file", "report",
                                                         "beacon", "queue"};

std::string station_name(int index) {
  char name[8];
  std::snprintf(name, sizeof name, "n%03d", index);
  return name;
}

std::string group_name(int index) {
  char name[8];
  std::snprintf(name, sizeof name, "g%03d", index);
  return name;
}

// The churn plan, placed by the seed: a hard server_down day, a partial
// flaky week, and an rtc_drift week during which station n000's reports
// run a day ahead of the clock. Scaled into the season's length.
fault::FaultPlan churn_plan(const Shape& shape, util::Rng& rng) {
  const auto day = [&](int nominal) {
    return std::to_string(nominal * shape.days / 130 +
                          int(rng.uniform() * 10.0) * shape.days / 130);
  };
  const std::string spec =
      "server_down start=" + day(20) + "d duration=1d severity=1.0\n" +
      "server_down start=" + day(60) + "d duration=7d severity=0.4\n" +
      "rtc_drift   start=" + day(40) + "d duration=7d severity=1.0\n";
  auto plan = fault::FaultPlan::parse(spec);
  if (!plan.ok()) {
    std::fprintf(stderr, "server_mix: bad churn plan: %s\n",
                 plan.error().message.c_str());
    return {};
  }
  return std::move(plan.value());
}

// What one simulated day asks of the hub, drawn before the day is timed.
struct QueryOp {
  Kind kind = kStats;
  std::uint16_t target = 0;      // station or group index
  std::uint16_t flip_byte = 0;   // corrupted wires: which byte
  std::uint8_t flip_bit = 0;     // ... and which bit
};
struct StationOp {
  std::int64_t file_bytes = 0;
  int state = 2;
  bool beacon = false;
};
struct DayPlan {
  std::array<StationOp, kStations> stations;
  std::array<int, 8> poked;  // stations whose command queue is poked
  std::vector<QueryOp> queries;
};

DayPlan draw_day(const Shape& shape, util::Rng& rng) {
  DayPlan plan;
  for (StationOp& op : plan.stations) {
    op.file_bytes = 20 * 1024 + std::int64_t(rng.uniform() * 60.0 * 1024.0);
    op.state = rng.uniform() < 0.5 ? 2 : 3;
    op.beacon = rng.uniform() < 1.0 / 7.0;
  }
  for (int& poked : plan.poked) poked = int(rng.uniform() * 16.0) * 4;
  plan.queries.resize(std::size_t(shape.queries_per_day));
  for (QueryOp& q : plan.queries) {
    const double u = rng.uniform();
    q.kind = u < 0.01 ? kCorrupt : u < 0.014 ? kDirectory
             : u < 0.214                      ? kGroup
                                              : kStats;
    q.target = std::uint16_t(rng.uniform() * kStations);
    q.flip_byte = std::uint16_t(rng.uniform() * 65536.0);
    q.flip_bit = std::uint8_t(rng.uniform() * 8.0);
  }
  return plan;
}

struct Folds {
  std::uint64_t issued = 0;
  std::uint64_t corrupt_issued = 0;
  std::uint64_t corrupt_refused = 0;
  std::uint64_t bad_responses = 0;
  std::uint64_t files_sent = 0;
  std::int64_t stats_bytes_sum = 0;
  std::int64_t group_fresh_sum = 0;
  std::int64_t converged_checks = 0;
  std::int64_t directory_names = 0;
};

struct MixResult {
  double run_s = 0.0;
  std::vector<double> day_s;
  std::uint64_t ingest_calls = 0;
  std::array<std::vector<double>, kKinds> query_us;
  std::array<std::vector<double>, kIngests> ingest_us;
  std::vector<double> compact_ms;
  Folds folds;
  std::uint64_t served = 0;
  std::uint64_t refused = 0;
  std::uint64_t rejected = 0;
  std::uint64_t future_ignored = 0;
  std::string canonical;
  std::uint32_t digest = 0;
  std::vector<std::string> failures;
};

// The hub as the workload populates it: fault oracle, bounded queues,
// ingest stripes, receipt window, and the 64 stations in 32 groups.
void populate(station::SouthamptonServer& server, fault::FaultOracle& oracle) {
  server.set_fault_oracle(&oracle);
  server.set_station_queue_limit(kQueueLimit);
  server.set_ingest_stripes(8);
  server.set_received_window(4096);
  for (int i = 0; i < kStations; ++i) {
    server.sync().assign_group(station_name(i), group_name(i / 2));
  }
}

class Caller {
 public:
  Caller(station::SouthamptonServer& server, Tracer& tracer, MixResult& out)
      : server_(server), tracer_(tracer), out_(out) {
    for (int k = 0; k < kKinds; ++k) {
      query_span_[std::size_t(k)] = tracer.name(
          std::string("station.server.query.") + kKindNames[std::size_t(k)]);
    }
    for (int k = 0; k < kIngests; ++k) {
      ingest_span_[std::size_t(k)] = tracer.name(
          std::string("station.server.ingest.") + kIngestNames[std::size_t(k)]);
    }
  }

  void query(const QueryOp& op, sim::SimTime now) {
    Folds& f = out_.folds;
    ++f.issued;
    const std::int64_t start = now_ns();
    {
      const Tracer::Span span(tracer_, query_span_[op.kind]);
      switch (op.kind) {
        case kStats: {
          proto::StationStatsRequest request;
          request.station = station_name(op.target);
          const auto response = proto::StationStatsResponse::decode(
              server_.handle_query(request.encode(), now));
          if (response.ok()) {
            f.stats_bytes_sum += response.value().bytes;
          } else {
            ++f.bad_responses;
          }
          break;
        }
        case kGroup: {
          proto::GroupStatusRequest request;
          request.group = group_name(op.target / 2);
          const auto response = proto::GroupStatusResponse::decode(
              server_.handle_query(request.encode(), now));
          if (response.ok()) {
            f.group_fresh_sum += response.value().fresh;
            if (response.value().converged) ++f.converged_checks;
          } else {
            ++f.bad_responses;
          }
          break;
        }
        case kDirectory: {
          const auto response = proto::DirectoryResponse::decode(
              server_.handle_query(proto::DirectoryRequest{}.encode(), now));
          if (response.ok()) {
            f.directory_names += std::int64_t(response.value().stations.size());
          } else {
            ++f.bad_responses;
          }
          break;
        }
        case kCorrupt: {
          ++f.corrupt_issued;
          proto::StationStatsRequest request;
          request.station = station_name(op.target);
          std::string wire = request.encode();
          wire[op.flip_byte % wire.size()] ^= char(1u << op.flip_bit);
          if (proto::QueryError::decode(server_.handle_query(wire, now)).ok()) {
            ++f.corrupt_refused;
          }
          break;
        }
        case kKinds: break;
      }
    }
    out_.query_us[op.kind].push_back(double(now_ns() - start) * 1e-3 *
                                     scale_);
  }

  // The host-speed factor applied to the latencies recorded next.
  void set_scale(double scale) { scale_ = scale; }
  [[nodiscard]] double scale() const { return scale_; }

  // Times one ingest call.
  template <typename Fn>
  void ingest(Ingest kind, Fn&& fn) {
    ++out_.ingest_calls;
    const std::int64_t start = now_ns();
    {
      const Tracer::Span span(tracer_, ingest_span_[kind]);
      fn();
    }
    out_.ingest_us[kind].push_back(double(now_ns() - start) * 1e-3 * scale_);
  }

 private:
  station::SouthamptonServer& server_;
  Tracer& tracer_;
  MixResult& out_;
  std::array<std::uint32_t, kKinds> query_span_{};
  std::array<std::uint32_t, kIngests> ingest_span_{};
  double scale_ = 1.0;
};

MixResult run_once(const Context& ctx, const Shape& shape) {
  Tracer& tracer = *ctx.tracer;
  MixResult result;
  util::Rng rng = util::Rng{ctx.seed}.fork("server_mix");
  const sim::SimTime start = sim::to_time({2008, 9, 1, 0, 0, 0});
  fault::FaultOracle oracle{churn_plan(shape, rng), start};
  station::SouthamptonServer server;
  populate(server, oracle);
  Caller caller{server, tracer, result};
  const std::uint32_t compact_span =
      tracer.name("station.server.compact_received");
  for (int k = 0; k < kKinds; ++k) {
    result.query_us[std::size_t(k)].reserve(
        std::size_t(shape.days * shape.queries_per_day) / (k == 0 ? 1 : 4));
  }

  const int per_block = shape.queries_per_day / kStations;
  for (int day = 0; day < shape.days; ++day) {
    const DayPlan plan = draw_day(shape, rng);
    caller.set_scale(ctx.calibrate());
    const sim::SimTime day_start = start + sim::days(day);
    const std::int64_t day_t0 = now_ns();
    std::size_t next_query = 0;
    for (int i = 0; i < kStations; ++i) {
      const std::string name = station_name(i);
      const StationOp& op = plan.stations[std::size_t(i)];
      const sim::SimTime at = day_start + sim::minutes(i);
      if (server.down_severity(at) < 1.0) {  // a hard outage: no upload
        ++result.folds.files_sent;
        caller.ingest(kFile, [&] {
          server.receive_file(name, "d" + std::to_string(day),
                              util::Bytes{op.file_bytes}, at);
        });
        const bool drifted =
            i == 0 && oracle.severity(fault::FaultKind::kRtcDrift, at) > 0.0;
        caller.ingest(kReport, [&] {
          server.sync().report_state(name, core::PowerState(op.state),
                                     drifted ? at + sim::days(1) : at);
        });
        if (op.beacon) {
          caller.ingest(kBeacon, [&] {
            server.receive_beacon(name, {"basestation.py", "md5", true}, at);
          });
        }
      }
      if (i < int(plan.poked.size())) {
        caller.ingest(kQueue, [&] {
          (void)server.queue_special(
              station_name(plan.poked[std::size_t(i)]),
              {.id = "ping", .script = "uptime"}, at);
        });
      }
      const std::size_t block_end = i + 1 == kStations
                                        ? plan.queries.size()
                                        : next_query + std::size_t(per_block);
      const sim::SimTime query_time = at + sim::seconds(30);
      for (; next_query < block_end; ++next_query) {
        caller.query(plan.queries[next_query], query_time);
      }
    }
    if (day % 7 == 6) {
      const std::int64_t t0 = now_ns();
      {
        const Tracer::Span span(tracer, compact_span);
        (void)server.compact_received();
      }
      ++result.ingest_calls;
      result.compact_ms.push_back(seconds_since(t0) * 1e3 * caller.scale());
    }
    result.day_s.push_back(seconds_since(day_t0) * caller.scale());
    result.run_s += result.day_s.back();
  }

  result.served = server.queries_served();
  result.refused = server.queries_refused();
  result.rejected = server.ingest_rejected();
  result.future_ignored = server.sync().future_reports_ignored();
  const Folds& f = result.folds;
  if (result.served + result.refused != f.issued) {
    result.failures.push_back("served + refused != issued");
  }
  if (f.corrupt_refused != f.corrupt_issued ||
      result.refused != f.corrupt_issued) {
    result.failures.push_back("a corrupted wire was not refused");
  }
  if (f.bad_responses != 0) {
    result.failures.push_back(std::to_string(f.bad_responses) +
                              " well-formed queries got no typed response");
  }
  if (server.files_received() != f.files_sent) {
    result.failures.push_back("hub holds " +
                              std::to_string(server.files_received()) +
                              " files, " + std::to_string(f.files_sent) +
                              " were uploaded");
  }
  char line[384];
  std::snprintf(line, sizeof line,
                "issued=%llu served=%llu refused=%llu rejected=%llu "
                "future_ignored=%llu files=%llu stats_bytes=%lld "
                "group_fresh=%lld converged=%lld directory_names=%lld",
                (unsigned long long)f.issued,
                (unsigned long long)result.served,
                (unsigned long long)result.refused,
                (unsigned long long)result.rejected,
                (unsigned long long)result.future_ignored,
                (unsigned long long)server.files_received(),
                (long long)f.stats_bytes_sum, (long long)f.group_fresh_sum,
                (long long)f.converged_checks, (long long)f.directory_names);
  result.canonical = line;
  result.digest = util::crc32(result.canonical);
  return result;
}

}  // namespace

void run_server_mix(const Context& ctx, Outcome& out) {
  const Shape shape = shape_of(ctx.scale);
  Tracer& tracer = *ctx.tracer;
  const bool tracing = tracer.enabled();

  // Timed: whole seasons, tracing off. Traced at full scale: one untraced
  // season (the latencies and the overhead baseline), then one traced.
  // Probe scale: one traced season.
  const int reps = !ctx.traced ? ctx.repetitions(5.0)
                   : ctx.scale == Scale::kFull ? 2
                                               : 1;
  // Set-up: populating the hub, timed 201 times (it takes microseconds)
  // before anything else runs in the process. The first 20 are not timed:
  // a fresh heap and a core that was idle a moment ago would make them read
  // slow.
  std::vector<double> setup;
  double setup_scale = 1.0;
  for (int i = -20; !ctx.traced && i < 201; ++i) {
    if (i % 10 == 0) setup_scale = ctx.calibrate();
    util::Rng rng = util::Rng{ctx.seed}.fork("server_mix");
    fault::FaultOracle oracle{churn_plan(shape, rng),
                              sim::to_time({2008, 9, 1, 0, 0, 0})};
    station::SouthamptonServer server;
    const std::int64_t t0 = now_ns();
    populate(server, oracle);
    if (i >= 0) setup.push_back(seconds_since(t0) * setup_scale);
  }
  std::vector<MixResult> runs;
  for (int rep = 0; rep < reps; ++rep) {
    tracer.set_enabled(tracing && (ctx.scale == Scale::kProbe || rep == 1));
    runs.push_back(run_once(ctx, shape));
    tracer.set_enabled(tracing);
  }

  for (std::size_t rep = 0; rep < runs.size(); ++rep) {
    MixResult& run = runs[rep];
    const std::uint64_t units = run.folds.issued + run.ingest_calls;
    out.attempted += units;
    if (run.digest != runs.front().digest) {
      run.failures.push_back("season " + std::to_string(rep) +
                             " differs from season 0");
    }
    if (ctx.pinned() && run.digest != kPinnedDigest) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "pinned digest mismatch: %08x vs %08x: ",
                    run.digest, kPinnedDigest);
      run.failures.push_back(buf + run.canonical);
    }
    for (const std::string& why : run.failures) {
      out.fail(units, "server_mix: " + why);
    }
  }
  std::printf("# server_mix: %d days x %d queries, digest %08x (%s)\n",
              shape.days, shape.queries_per_day, runs.front().digest,
              runs.front().canonical.c_str());

  if (!ctx.traced) {
    std::vector<std::vector<double>> day_s;
    for (const MixResult& run : runs) day_s.push_back(run.day_s);
    // Every repetition issues the same queries in the same order, so each
    // kind's latencies line up query by query.
    std::vector<double> step_us;
    for (std::size_t k = 0; k < kKinds; ++k) {
      std::vector<std::vector<double>> kind_us;
      for (const MixResult& run : runs) kind_us.push_back(run.query_us[k]);
      const std::vector<double> best = best_of(kind_us);
      step_us.insert(step_us.end(), best.begin(), best.end());
    }
    set_end_to_end(ctx, out, double(runs.front().folds.issued),
                   sum(best_of(day_s)), step_us, setup, "queries");
    return;
  }

  const MixResult& base = runs.front();
  const MixResult& traced = runs.back();
  MetricTable& m = out.metrics;
  for (int k = 0; k < kKinds; ++k) {
    const std::string prefix =
        std::string("server.") + kKindNames[std::size_t(k)] + "_query_";
    const std::vector<double>& latencies = base.query_us[std::size_t(k)];
    m.set(prefix + "p50_us", "us", percentile(latencies, 0.5));
    m.set(prefix + "p99_us", "us", percentile(latencies, 0.99));
  }
  for (int k = 0; k < kIngests; ++k) {
    m.set(std::string("server.") + kIngestNames[std::size_t(k)] +
              "_ingest_p99_us",
          "us", percentile(base.ingest_us[std::size_t(k)], 0.99));
  }
  m.set("server.compact_p50_ms", "ms", median(base.compact_ms));
  m.set("server.queries_served", "count", double(base.served));
  m.set("server.queries_refused", "count", double(base.refused));
  m.set("server.ingest_rejected", "count", double(base.rejected));
  m.set("server.future_reports_ignored", "count", double(base.future_ignored));
  if (ctx.scale == Scale::kFull) {
    m.set("trace.overhead_share", "share",
          overhead_share(traced.run_s, base.run_s));
  }
}

}  // namespace gw::perfbench
