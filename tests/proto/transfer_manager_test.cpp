#include "proto/transfer_manager.h"

#include <gtest/gtest.h>

#include "env/environment.h"

namespace gw::proto {
namespace {

using namespace util::literals;

struct Fixture {
  sim::Simulation simulation{sim::at_midnight(2009, 9, 22)};
  env::Environment environment{1};
  power::PowerSystemConfig power_config;
  power::PowerSystem power{simulation, environment, power_config};
  hw::GprsConfig reliable_config;
  Fixture() {
    reliable_config.registration_success = 1.0;
    reliable_config.drop_per_minute = 0.0;
  }
  hw::GprsModem modem{simulation, power, util::Rng{5}, reliable_config};
};

TEST(TransferManager, QueueAccounting) {
  TransferManager manager;
  manager.enqueue("a", 165_KiB);
  manager.enqueue("b", 100_KiB);
  EXPECT_EQ(manager.queued_files(), 2u);
  EXPECT_EQ(manager.queued_bytes(), 265_KiB);
}

TEST(TransferManager, DrainsQueueWithinWindow) {
  Fixture f;
  f.modem.power_on();
  TransferManager manager;
  for (int i = 0; i < 5; ++i) {
    manager.enqueue("dgps_" + std::to_string(i), 165_KiB);
  }
  const auto report = manager.run_window(f.modem, sim::hours(2));
  EXPECT_EQ(report.files_completed, 5);
  EXPECT_TRUE(manager.empty());
  EXPECT_FALSE(report.window_exhausted);
  // 5 x ~300 s ≈ 28 min of window used.
  EXPECT_NEAR(report.elapsed.to_minutes(), 28.0, 5.0);
}

TEST(TransferManager, BacklogDrainsFileByFileOverDays) {
  // §VI: "the data will be processed file by file, and so over the course
  // of a few days the backlog will be cleared."
  Fixture f;
  f.modem.power_on();
  TransferManager manager;
  for (int i = 0; i < 60; ++i) {
    manager.enqueue("dgps_" + std::to_string(i), 165_KiB);
  }
  int days = 0;
  while (!manager.empty() && days < 10) {
    (void)manager.run_window(f.modem, sim::hours(2));
    ++days;
  }
  EXPECT_TRUE(manager.empty());
  EXPECT_GT(days, 1);   // too much for one window (60 x 5min ≈ 5h)
  EXPECT_LE(days, 4);
}

TEST(TransferManager, OversizedFileLivelocksWithoutChunkResume) {
  // §VI: a single file exceeding one window means "no progress could ever
  // be made".
  Fixture f;
  f.modem.power_on();
  TransferManager manager;  // chunk_resume off: deployed behaviour
  manager.enqueue("giant", util::mib(6.0));  // ~2.8 h at 5000 bps
  for (int day = 0; day < 5; ++day) {
    const auto report = manager.run_window(f.modem, sim::hours(2));
    EXPECT_EQ(report.files_completed, 0);
    EXPECT_TRUE(report.window_exhausted);
  }
  EXPECT_EQ(manager.queued_files(), 1u);
  EXPECT_EQ(manager.queue().front().sent.count(), 0);  // zero progress
}

TEST(TransferManager, ChunkResumeFixesTheLivelock) {
  Fixture f;
  f.modem.power_on();
  TransferManagerConfig config;
  config.chunk_resume = true;  // the obvious fix, swept in the bench
  TransferManager manager{config};
  manager.enqueue("giant", util::mib(6.0));
  int days = 0;
  while (!manager.empty() && days < 5) {
    (void)manager.run_window(f.modem, sim::hours(2));
    ++days;
  }
  EXPECT_TRUE(manager.empty());
  EXPECT_LE(days, 2);
}

TEST(TransferManager, RegistrationFailuresRetryThenGiveUp) {
  Fixture f;
  hw::GprsConfig dead_config;
  dead_config.registration_success = 0.0;
  hw::GprsModem dead{f.simulation, f.power, util::Rng{9}, dead_config};
  dead.power_on();
  TransferManager manager;
  manager.enqueue("data", 10_KiB);
  const auto report = manager.run_window(dead, sim::hours(2));
  EXPECT_EQ(report.files_completed, 0);
  EXPECT_EQ(report.failed_sessions, 3);  // initial + 2 retries
  EXPECT_EQ(manager.queued_files(), 1u);  // kept for tomorrow
}

TEST(TransferManager, PriorityOrderingJumpsBacklog) {
  // §VII-adjacent extension: today's science beats last month's GPS files.
  Fixture f;
  f.modem.power_on();
  proto::TransferManager manager;
  for (int i = 0; i < 100; ++i) {
    manager.enqueue("dgps_backlog_" + std::to_string(i), 165_KiB);
  }
  manager.enqueue("probes_today", 40_KiB, /*priority=*/1);
  EXPECT_EQ(manager.queue().front().name, "probes_today");
  // A short window: the probe file still gets out first.
  const auto report = manager.run_window(f.modem, sim::minutes(10));
  EXPECT_GE(report.files_completed, 1);
  bool probe_file_gone = true;
  for (const auto& file : manager.queue()) {
    if (file.name == "probes_today") probe_file_gone = false;
  }
  EXPECT_TRUE(probe_file_gone);
}

TEST(TransferManager, PriorityNeverPreemptsPartialProgress) {
  proto::TransferManagerConfig config;
  config.chunk_resume = true;
  proto::TransferManager manager{config};
  manager.enqueue("half_done", 100_KiB);
  // Simulate partial progress by pushing priority traffic afterwards; the
  // half-transferred head must keep its slot (sent bytes would be wasted).
  // (Progress is internal; emulate via the public path: a window that
  // truncates.)
  Fixture f;
  f.modem.power_on();
  (void)manager.run_window(f.modem, sim::seconds(90));  // partial only
  ASSERT_GT(manager.queue().front().sent.count(), 0);
  manager.enqueue("urgent", 1_KiB, /*priority=*/9);
  EXPECT_EQ(manager.queue().front().name, "half_done");
  EXPECT_EQ(manager.queue()[1].name, "urgent");
}

TEST(TransferManager, BackoffSeparatesConsecutiveFailures) {
  // Capped exponential backoff: the k-th consecutive failure waits
  // min(base * 2^(k-1), cap) of window time before redialling.
  Fixture f;
  hw::GprsConfig dead_config;
  dead_config.registration_success = 0.0;
  hw::GprsModem dead{f.simulation, f.power, util::Rng{9}, dead_config};
  dead.power_on();
  TransferManagerConfig config;
  config.max_session_retries = 5;
  config.retry_backoff_base = sim::minutes(1);
  config.retry_backoff_cap = sim::minutes(4);
  TransferManager manager{config};
  manager.enqueue("data", 10_KiB);
  const auto report = manager.run_window(dead, sim::hours(2));
  EXPECT_EQ(report.failed_sessions, 6);  // initial + 5 retries
  // Backoffs after failures 1..5: 1 + 2 + 4 + 4 + 4 minutes (capped).
  EXPECT_EQ(report.backoff_spent, sim::minutes(15));
  EXPECT_EQ(report.elapsed,
            dead.config().registration_time * 6 + sim::minutes(15));
}

TEST(TransferManager, BackoffNeverExceedsTheWindow) {
  Fixture f;
  hw::GprsConfig dead_config;
  dead_config.registration_success = 0.0;
  hw::GprsModem dead{f.simulation, f.power, util::Rng{9}, dead_config};
  dead.power_on();
  TransferManagerConfig config;
  config.max_session_retries = 10;
  config.retry_backoff_base = sim::minutes(8);
  TransferManager manager{config};
  manager.enqueue("data", 10_KiB);
  const auto budget = sim::minutes(12);
  const auto report = manager.run_window(dead, budget);
  EXPECT_LE(report.elapsed, budget + dead.config().registration_time);
  EXPECT_TRUE(report.window_exhausted);
  EXPECT_EQ(manager.queued_files(), 1u);
}

TEST(TransferManager, SessionTimeoutCutsAWedgedSession) {
  // Regression for the wedge path: a hung SCP used to eat hang_duration
  // (24 h) and leave the 2-hour watchdog as the only backstop. With a
  // session timeout the window survives three wedges and moves on.
  Fixture f;
  hw::GprsConfig wedge_config;
  wedge_config.registration_success = 1.0;
  wedge_config.hang_per_session = 1.0;
  hw::GprsModem wedged{f.simulation, f.power, util::Rng{9}, wedge_config};
  wedged.power_on();
  TransferManagerConfig config;
  config.session_timeout = sim::minutes(10);
  TransferManager manager{config};
  manager.enqueue("data", 10_KiB);
  const auto report = manager.run_window(wedged, sim::hours(2));
  EXPECT_EQ(report.sessions_timed_out, 3);  // initial + 2 retries
  EXPECT_EQ(report.failed_sessions, 3);
  const auto per_session =
      wedged.config().registration_time + sim::minutes(10);
  EXPECT_EQ(report.elapsed, per_session * 3);
  EXPECT_LT(report.elapsed, sim::hours(1));  // not 3 x 24 h
}

TEST(TransferManager, AdmitPredicateFiltersLogOnlyUpload) {
  // Degraded mode's "log-only upload": science files stay queued while the
  // logfile (and nothing else) goes out.
  Fixture f;
  f.modem.power_on();
  TransferManager manager;
  manager.enqueue("dgps_0", 165_KiB);
  manager.enqueue("log_day12", 4_KiB);
  manager.enqueue("dgps_1", 165_KiB);
  const auto report = manager.run_window(
      f.modem, sim::hours(2), sim::kEpoch,
      [](const UploadFile& file) { return file.name.rfind("log_", 0) == 0; });
  EXPECT_EQ(report.files_completed, 1);
  EXPECT_EQ(manager.queued_files(), 2u);
  for (const auto& file : manager.queue()) {
    EXPECT_EQ(file.name.rfind("dgps_", 0), 0u);
  }
  // Without a predicate the same queue drains front-first as before.
  const auto rest = manager.run_window(f.modem, sim::hours(2));
  EXPECT_EQ(rest.files_completed, 2);
  EXPECT_TRUE(manager.empty());
}

TEST(TransferManager, EmptyQueueNoWork) {
  Fixture f;
  f.modem.power_on();
  TransferManager manager;
  const auto report = manager.run_window(f.modem, sim::hours(2));
  EXPECT_EQ(report.files_completed, 0);
  EXPECT_EQ(report.elapsed.millis(), 0);
}

TEST(TransferManager, TinyWindowExhaustsImmediately) {
  Fixture f;
  f.modem.power_on();
  TransferManager manager;
  manager.enqueue("data", 165_KiB);
  const auto report = manager.run_window(f.modem, sim::seconds(10));
  EXPECT_TRUE(report.window_exhausted);
  EXPECT_EQ(report.files_completed, 0);
}

}  // namespace
}  // namespace gw::proto
