// Isolated layer probes: single public calls into one layer, timed in
// batches with hot caches. Each returns the median batch cost per call, so
// the shares derived from them in the workloads are estimates, not
// measurements of the calls as the workloads make them.
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "env/environment.h"
#include "hw/dgps.h"
#include "hw/gprs_modem.h"
#include "hw/gumsense.h"
#include "power/chargers.h"
#include "power/power_system.h"
#include "proto/messages.h"
#include "sim/simulation.h"
#include "sim/time.h"
#include "workloads.h"

namespace gw::perfbench {
namespace {

// The season calendar every probe walks: 180 days of minutes from
// 2008-09-01, the cadence of the power tick.
constexpr int kDays = 180;
constexpr int kMinutesPerDay = 1440;

sim::SimTime season_start() { return sim::to_time({2008, 9, 1, 0, 0, 0}); }

// Keeps probe results observable so the calls are not optimised away.
volatile double g_sink = 0.0;

// Median over days of (time for one day's calls / calls per day).
double per_call_ns_by_day(const std::function<void(sim::SimTime)>& call) {
  std::vector<double> per_call;
  per_call.reserve(kDays);
  for (int day = 0; day < kDays; ++day) {
    const sim::SimTime day_start = season_start() + sim::days(day);
    const std::int64_t start = now_ns();
    for (int minute = 0; minute < kMinutesPerDay; ++minute) {
      call(day_start + sim::minutes(minute));
    }
    per_call.push_back(double(now_ns() - start) / kMinutesPerDay);
  }
  return median(per_call);
}

// The kernel with the season's pattern: 32 stations, each a 1-minute
// stream (the power tick) and a 12-minute one (everything else), so one
// station-day is about 1560 events, as in the season.
double dispatch_ns() {
  struct Stream {
    sim::Simulation* simulation;
    sim::Duration period;
    std::uint64_t fired = 0;
    void fire() {
      ++fired;
      simulation->schedule_in(period, [this] { fire(); });
    }
  };
  sim::Simulation simulation{season_start()};
  std::vector<Stream> streams;
  streams.reserve(64);
  for (int station = 0; station < 32; ++station) {
    streams.push_back({&simulation, sim::minutes(1)});
    streams.push_back({&simulation, sim::minutes(12)});
  }
  for (int i = 0; i < 64; ++i) {
    Stream* stream = &streams[std::size_t(i)];
    simulation.schedule_at(season_start() + sim::seconds(i),
                           [stream] { stream->fire(); });
  }
  std::vector<double> per_event;
  for (int day = 1; day <= kDays; ++day) {
    const std::uint64_t before = simulation.events_executed();
    const std::int64_t start = now_ns();
    simulation.run_until(season_start() + sim::days(day));
    const auto events = double(simulation.events_executed() - before);
    per_event.push_back(double(now_ns() - start) / events);
  }
  return median(per_event);
}

// PowerSystem::tick on a standalone power system wired like a base
// station: solar + wind chargers, the Gumsense board (MSP430 + Gumstix),
// dGPS receiver and GPRS modem as components. The clock advances minute
// by minute over the season calendar, as the kernel would.
double tick_ns(std::uint64_t seed) {
  sim::Simulation simulation{season_start()};
  env::Environment environment{seed};
  const util::Rng rng{seed};
  power::PowerSystem power{simulation, environment, {}};
  power.add_charger(
      std::make_unique<power::SolarPanel>(power::SolarPanelConfig{}));
  power.add_charger(
      std::make_unique<power::WindTurbine>(power::WindTurbineConfig{}));
  hw::Gumsense board{simulation, power, rng.fork("board")};
  hw::DgpsReceiver dgps{simulation, power, rng.fork("dgps"), {},
                        &environment.gps_sky()};
  hw::GprsModem gprs{simulation, power, rng.fork("gprs")};
  const double ns = per_call_ns_by_day([&](sim::SimTime t) {
    simulation.run_until(t);
    power.tick(sim::minutes(1));
  });
  g_sink = g_sink + power.battery().soc();
  return ns;
}

// Per-call cost of fn over `batches` batches of `calls`, median batch.
double batched_ns(int batches, int calls, const std::function<void()>& fn) {
  std::vector<double> per_call;
  per_call.reserve(std::size_t(batches));
  for (int b = 0; b < batches; ++b) {
    const std::int64_t start = now_ns();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(double(now_ns() - start) / calls);
  }
  return median(per_call);
}

}  // namespace

LayerCosts run_probes(std::uint64_t seed, MetricTable& m) {
  LayerCosts costs;
  costs.dispatch_ns = dispatch_ns();
  costs.tick_ns = tick_ns(seed);
  {
    env::Environment environment{seed};
    costs.air_ns = per_call_ns_by_day([&](sim::SimTime t) {
      g_sink = g_sink + environment.temperature().air(t).value();
    });
    costs.irradiance_ns = per_call_ns_by_day([&](sim::SimTime t) {
      g_sink = g_sink + environment.solar().irradiance(t).value();
    });
    costs.wind_speed_ns = per_call_ns_by_day([&](sim::SimTime t) {
      g_sink = g_sink + environment.wind().speed(t).value();
    });
  }
  costs.to_datetime_ns = per_call_ns_by_day(
      [](sim::SimTime t) { g_sink = g_sink + sim::to_datetime(t).minute; });

  m.set("sim.dispatch_ns", "ns", costs.dispatch_ns);
  m.set("power.tick_ns", "ns", costs.tick_ns);
  m.set("env.air_ns", "ns", costs.air_ns);
  m.set("env.irradiance_ns", "ns", costs.irradiance_ns);
  m.set("env.wind_speed_ns", "ns", costs.wind_speed_ns);
  m.set("sim.to_datetime_ns", "ns", costs.to_datetime_ns);

  // The Form codec as a client uses it: encode a request, decode the
  // response the hub sends back.
  proto::StationStatsRequest stats_request;
  stats_request.station = "n017";
  proto::GroupStatusRequest group_request;
  group_request.group = "g008";
  proto::StationStatsResponse stats_response;
  stats_response.station = "n017";
  stats_response.known = true;
  stats_response.files = 130;
  stats_response.bytes = 6'500'000;
  stats_response.beacons = 18;
  proto::GroupStatusResponse group_response;
  group_response.group = "g008";
  group_response.members = 2;
  group_response.fresh = 2;
  group_response.converged = true;
  proto::DirectoryResponse directory_response;
  for (int i = 0; i < 64; ++i) {
    char name[8];
    std::snprintf(name, sizeof name, "n%03d", i);
    directory_response.stations.push_back(name);
  }
  const std::string stats_wire = stats_response.encode();
  const std::string group_wire = group_response.encode();
  const std::string directory_wire = directory_response.encode();
  const auto encode = [](const auto& message) {
    return [&message] { g_sink = g_sink + double(message.encode().size()); };
  };
  m.set("proto.stats_encode_ns", "ns",
        batched_ns(200, 500, encode(stats_request)));
  m.set("proto.group_encode_ns", "ns",
        batched_ns(200, 500, encode(group_request)));
  const proto::DirectoryRequest directory_request;
  m.set("proto.directory_encode_ns", "ns",
        batched_ns(200, 500, encode(directory_request)));
  m.set("proto.stats_decode_ns", "ns", batched_ns(200, 500, [&] {
          const auto decoded = proto::StationStatsResponse::decode(stats_wire);
          g_sink = g_sink + double(decoded.value().bytes);
        }));
  m.set("proto.group_decode_ns", "ns", batched_ns(200, 500, [&] {
          const auto decoded = proto::GroupStatusResponse::decode(group_wire);
          g_sink = g_sink + double(decoded.value().fresh);
        }));
  m.set("proto.directory_decode_ns", "ns", batched_ns(50, 200, [&] {
          const auto decoded =
              proto::DirectoryResponse::decode(directory_wire);
          g_sink = g_sink + double(decoded.value().stations.size());
        }));
  return costs;
}

}  // namespace gw::perfbench
