#include "core/state_sync.h"

#include <gtest/gtest.h>

namespace gw::core {
namespace {

TEST(SyncRules, FetchFailureFallsBackToLocal) {
  // §III: "if the fetching of the over-ride state from the server fails for
  // any reason then the system will just rely on its local state."
  EXPECT_EQ(SyncRules::apply(PowerState::kState3, std::nullopt),
            PowerState::kState3);
  EXPECT_EQ(SyncRules::apply(PowerState::kState0, std::nullopt),
            PowerState::kState0);
}

TEST(SyncRules, OverrideCanLowerButNotRaise) {
  // "does not allow the state to be set higher than the battery voltage
  // allows."
  EXPECT_EQ(SyncRules::apply(PowerState::kState3, PowerState::kState2),
            PowerState::kState2);
  EXPECT_EQ(SyncRules::apply(PowerState::kState1, PowerState::kState3),
            PowerState::kState1);
}

TEST(SyncRules, CannotBeForcedToStateZero) {
  // "or for the station to be forced into power state 0."
  EXPECT_EQ(SyncRules::apply(PowerState::kState3, PowerState::kState0),
            PowerState::kState1);
  EXPECT_EQ(SyncRules::apply(PowerState::kState2, PowerState::kState0),
            PowerState::kState1);
}

TEST(SyncRules, VoltageZeroStillWinsOverOverride) {
  // A flat battery is state 0 no matter what the server says.
  EXPECT_EQ(SyncRules::apply(PowerState::kState0, PowerState::kState3),
            PowerState::kState0);
}

// The paper's dGPS pair: base and reference in one sync group.
SyncServer paired_server() {
  SyncServer server;
  server.assign_group("base", "pair");
  server.assign_group("reference", "pair");
  return server;
}

TEST(SyncServer, ReturnsLowestReportedState) {
  SyncServer server = paired_server();
  server.report_state("base", PowerState::kState3);
  server.report_state("reference", PowerState::kState2);
  ASSERT_TRUE(server.override_for_client("base").has_value());
  EXPECT_EQ(*server.override_for_client("base"), PowerState::kState2);
  EXPECT_EQ(*server.override_for_client("reference"), PowerState::kState2);
}

TEST(SyncServer, NoReportsNoOverride) {
  SyncServer server = paired_server();
  EXPECT_FALSE(server.override_for_client("base").has_value());
}

TEST(SyncServer, LatestReportWins) {
  SyncServer server = paired_server();
  server.report_state("base", PowerState::kState1);
  server.report_state("base", PowerState::kState3);
  EXPECT_EQ(*server.override_for_client("base"), PowerState::kState3);
  EXPECT_EQ(*server.reported_state("base"), PowerState::kState3);
  EXPECT_FALSE(server.reported_state("ghost").has_value());
}

TEST(SyncServer, ManualOverrideFloorsTheResult) {
  // Fig 5's observed behaviour: voltage allowed state 3 but the system "was
  // being held in state 2 by the remote override system."
  SyncServer server = paired_server();
  server.report_state("base", PowerState::kState3);
  server.report_state("reference", PowerState::kState3);
  server.set_manual_override(PowerState::kState2);
  EXPECT_EQ(*server.override_for_client("base"), PowerState::kState2);
  // Released: stations converge back to 3.
  server.set_manual_override(std::nullopt);
  EXPECT_EQ(*server.override_for_client("base"), PowerState::kState3);
}

TEST(SyncServer, StaleReportExpiresInsteadOfPinningTheFleet) {
  // Regression for the silent-station pinning bug: a station that browned
  // out after reporting state 1 used to hold every other station at 1
  // forever. Its report must age out of the min-rule.
  SyncServer server = paired_server();
  const auto start = sim::at_midnight(2008, 10, 1);
  server.report_state("base", PowerState::kState1, start);
  server.report_state("reference", PowerState::kState3, start);
  // Fresh: the min rule sees both.
  EXPECT_EQ(*server.override_for_client("reference", start),
            PowerState::kState1);
  // The base goes silent (flat battery); the reference keeps reporting.
  const auto later = start + server.max_report_age() + sim::days(2);
  server.report_state("reference", PowerState::kState3, later);
  EXPECT_EQ(*server.override_for_client("reference", later),
            PowerState::kState3);
  // The silent station's last word is still on record, just not binding.
  EXPECT_EQ(*server.reported_state("base"), PowerState::kState1);
  // When it comes back, its reports count again.
  server.report_state("base", PowerState::kState2, later);
  EXPECT_EQ(*server.override_for_client("reference", later),
            PowerState::kState2);
}

TEST(SyncServer, AllReportsStaleMeansNothingToSay) {
  SyncServer server = paired_server();
  const auto start = sim::at_midnight(2008, 10, 1);
  server.report_state("base", PowerState::kState1, start);
  const auto later = start + server.max_report_age() + sim::days(1);
  EXPECT_FALSE(server.override_for_client("base", later).has_value());
  // ...unless an operator override is standing: that never expires.
  server.set_manual_override(PowerState::kState2);
  EXPECT_EQ(*server.override_for_client("base", later), PowerState::kState2);
}

TEST(SyncServer, TimestampFreeCallersStayFresh) {
  // Pre-expiry callers pass no timestamps; everything is reported and read
  // at the epoch, so nothing ever ages out and behaviour is unchanged.
  SyncServer server = paired_server();
  server.report_state("base", PowerState::kState1);
  server.report_state("reference", PowerState::kState3);
  EXPECT_EQ(*server.override_for_client("reference"), PowerState::kState1);
}

TEST(SyncServer, MinRuleIsScopedToTheSyncGroup) {
  // Two dGPS pairs on one server: each pair's min-rule must see only its
  // own members, not the whole fleet.
  SyncServer server;
  server.assign_group("a1", "pair_a");
  server.assign_group("a2", "pair_a");
  server.assign_group("b1", "pair_b");
  server.assign_group("b2", "pair_b");
  server.report_state("a1", PowerState::kState1);
  server.report_state("a2", PowerState::kState3);
  server.report_state("b1", PowerState::kState3);
  server.report_state("b2", PowerState::kState2);
  EXPECT_EQ(*server.override_for_client("a1"), PowerState::kState1);
  EXPECT_EQ(*server.override_for_client("a2"), PowerState::kState1);
  EXPECT_EQ(*server.override_for_client("b1"), PowerState::kState2);
  EXPECT_EQ(*server.override_for_client("b2"), PowerState::kState2);
  // The fleet-wide manual override still floors every group.
  server.set_manual_override(PowerState::kState1);
  EXPECT_EQ(*server.override_for_client("b1"), PowerState::kState1);
}

TEST(SyncServer, UngroupedStationSelfSyncs) {
  // An ungrouped station is bound only by its own report (and any manual
  // override) — another station's low state must not drag it down.
  SyncServer server;
  server.report_state("lone", PowerState::kState3);
  server.report_state("other", PowerState::kState1);
  EXPECT_EQ(*server.override_for_client("lone"), PowerState::kState3);
  // Before it has reported anything, the server has nothing to say to it.
  EXPECT_FALSE(server.override_for_client("fresh").has_value());
}

TEST(SyncServer, ExpiryUnpinsSilentMemberOfLargeGroup) {
  // A 3-station group: the member that browns out and goes silent must age
  // out of its group's min-rule, not pin it forever.
  SyncServer server;
  for (const char* name : {"g1", "g2", "g3"}) {
    server.assign_group(name, "trio");
  }
  const auto start = sim::at_midnight(2008, 10, 1);
  server.report_state("g1", PowerState::kState1, start);
  server.report_state("g2", PowerState::kState3, start);
  server.report_state("g3", PowerState::kState2, start);
  EXPECT_EQ(*server.override_for_client("g2", start), PowerState::kState1);
  // g1 goes silent; the others keep reporting past its expiry horizon.
  const auto later = start + server.max_report_age() + sim::days(2);
  server.report_state("g2", PowerState::kState3, later);
  server.report_state("g3", PowerState::kState2, later);
  EXPECT_EQ(*server.override_for_client("g2", later), PowerState::kState2);
  // When it comes back, its reports bind the group again.
  server.report_state("g1", PowerState::kState1, later);
  EXPECT_EQ(*server.override_for_client("g2", later), PowerState::kState1);
}

TEST(SyncServer, GroupOverrideScopedToOneGroupNotTheFleet) {
  SyncServer server;
  server.assign_group("a1", "pair_a");
  server.assign_group("a2", "pair_a");
  server.assign_group("b1", "pair_b");
  server.assign_group("b2", "pair_b");
  for (const char* name : {"a1", "a2", "b1", "b2"}) {
    server.report_state(name, PowerState::kState3);
  }
  server.set_group_override("pair_a", PowerState::kState1);
  EXPECT_EQ(*server.override_for_client("a1"), PowerState::kState1);
  EXPECT_EQ(*server.override_for_client("a2"), PowerState::kState1);
  // pair_b is untouched by pair_a's override.
  EXPECT_EQ(*server.override_for_client("b1"), PowerState::kState3);
  // Clearing restores the group's own min-rule.
  server.set_group_override("pair_a", std::nullopt);
  EXPECT_EQ(*server.override_for_client("a1"), PowerState::kState3);
  // The fleet-wide manual override still floors everyone.
  server.set_manual_override(PowerState::kState2);
  EXPECT_EQ(*server.override_for_client("a1"), PowerState::kState2);
  EXPECT_EQ(*server.override_for_client("b1"), PowerState::kState2);
}

TEST(SyncServer, GroupMembershipIntrospection) {
  SyncServer server;
  server.assign_group("a1", "pair_a");
  server.assign_group("a2", "pair_a");
  server.assign_group("b1", "pair_b");
  EXPECT_EQ(server.group_of("a1"), "pair_a");
  EXPECT_EQ(server.group_of("a2"), "pair_a");
  EXPECT_EQ(server.group_of("b1"), "pair_b");
  EXPECT_EQ(server.group_of("ghost"), "");
  // Reassignment moves a station; its old group keeps the others.
  server.assign_group("a2", "pair_b");
  EXPECT_EQ(server.group_of("a2"), "pair_b");
  EXPECT_EQ(server.group_of("a1"), "pair_a");
  EXPECT_EQ(server.group_of("b1"), "pair_b");
  // An empty name removes the station from its group.
  server.assign_group("a1", "");
  EXPECT_EQ(server.group_of("a1"), "");
  EXPECT_EQ(server.group_of("a2"), "pair_b");
}

TEST(SyncServer, ReportLogIsOptInAndDrainsInReportOrder) {
  SyncServer server;
  // Off by default: the serial fleet pays nothing for the sharded hook.
  server.report_state("base", PowerState::kState3, sim::SimTime{100});
  EXPECT_FALSE(server.report_log_enabled());
  EXPECT_TRUE(server.drain_report_log().empty());

  server.enable_report_log();
  server.report_state("base", PowerState::kState2, sim::SimTime{200});
  server.report_state("reference", PowerState::kState1, sim::SimTime{250});
  const auto drained = server.drain_report_log();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].station, "base");
  EXPECT_EQ(drained[0].state, PowerState::kState2);
  EXPECT_EQ(drained[0].reported_at, sim::SimTime{200});
  EXPECT_EQ(drained[1].station, "reference");
  // Draining moves: a second drain is empty until the next report.
  EXPECT_TRUE(server.drain_report_log().empty());
}

TEST(SyncServer, RecordRemoteStateUpdatesLedgerWithoutEcho) {
  // A relayed peer report must enter the min-rule ledger but NOT the
  // report log — logging it would bounce the report back to the peer at
  // the next drain, forever.
  SyncServer server;
  server.enable_report_log();
  server.assign_group("base", "pair");
  server.assign_group("reference", "pair");
  server.record_remote_state("reference", PowerState::kState1,
                             sim::SimTime{500});
  EXPECT_TRUE(server.drain_report_log().empty());
  EXPECT_EQ(server.override_for_client("base", sim::SimTime{600}),
            PowerState::kState1);
}

TEST(SyncServer, FutureDatedReportCannotPinTheGroup) {
  // Regression: freshness was computed as `now - reported_at > max_age`,
  // so a report from the future had a *negative* age — fresh forever. One
  // station with a drifted RTC claiming state 1 next week pinned its
  // group's min-rule to state 1 indefinitely, long after its report should
  // have aged out. Future-dated reports must be ignored outright.
  SyncServer server;
  ASSERT_EQ(server.max_report_age(), sim::days(5));
  server.assign_group("base", "pair");
  server.assign_group("reference", "pair");
  const sim::SimTime now = sim::to_time({2008, 9, 10, 12, 0, 0});
  server.report_state("base", PowerState::kState3, now);
  // reference's RTC runs a month fast: its state-1 report is "from" Oct 10.
  server.report_state("reference", PowerState::kState1,
                      now + sim::days(30));
  // The future report is not evidence: base sees only its own state.
  EXPECT_EQ(server.override_for_client("base", now), PowerState::kState3);
  EXPECT_GT(server.future_reports_ignored(), 0u);
  // Fast-forward past max_report_age: with the old `age > max` arithmetic
  // the drifted report would *still* be fresh 40 days on. It only counts
  // once real time reaches its claimed timestamp.
  const sim::SimTime later = now + sim::days(31);
  EXPECT_EQ(server.override_for_client("base", later), PowerState::kState1);
}

TEST(SyncServer, FutureReportIgnoredIsJournalled) {
  SyncServer server;
  obs::EventJournal journal;
  server.set_hooks(obs::Hooks{nullptr, &journal});
  const sim::SimTime now = sim::to_time({2008, 9, 10, 0, 0, 0});
  server.report_state("base", PowerState::kState2, now + sim::hours(2));
  EXPECT_FALSE(server.override_for_client("base", now).has_value());
  ASSERT_EQ(journal.count(obs::EventType::kFutureReport), 1u);
  const auto events = journal.of_type(obs::EventType::kFutureReport);
  EXPECT_EQ(events[0].component, "state_sync");
  EXPECT_DOUBLE_EQ(events[0].a, 7200.0);  // seconds ahead
  EXPECT_DOUBLE_EQ(events[0].b, 2.0);     // the state it claimed
  // Honest reports journal nothing.
  server.report_state("base", PowerState::kState2, now);
  EXPECT_EQ(server.override_for_client("base", now + sim::hours(1)),
            PowerState::kState2);
  EXPECT_EQ(journal.count(obs::EventType::kFutureReport), 1u);
}

TEST(SyncServer, ReportExactlyAtMaxAgeIsStillFresh) {
  // The freshness comparison is strict (`age > max`): a report exactly
  // max_report_age old still binds; one millisecond older does not.
  SyncServer server;
  ASSERT_EQ(server.max_report_age(), sim::days(5));
  const sim::SimTime reported = sim::to_time({2008, 9, 1, 0, 0, 0});
  server.report_state("base", PowerState::kState1, reported);
  EXPECT_EQ(server.override_for_client("base", reported + sim::days(5)),
            PowerState::kState1);
  EXPECT_FALSE(
      server
          .override_for_client(
              "base", reported + sim::days(5) + sim::milliseconds(1))
          .has_value());
}

TEST(SyncServer, GroupViewReflectsLedgerConvergence) {
  SyncServer server;
  server.assign_group("base", "pair");
  server.assign_group("reference", "pair");
  const sim::SimTime now = sim::to_time({2008, 9, 10, 0, 0, 0});

  // No reports yet: two members, none fresh, not converged.
  auto view = server.group_view("pair", now);
  EXPECT_EQ(view.members, 2);
  EXPECT_EQ(view.fresh, 0);
  EXPECT_FALSE(view.converged);

  server.report_state("base", PowerState::kState2, now);
  view = server.group_view("pair", now);
  EXPECT_EQ(view.fresh, 1);
  EXPECT_FALSE(view.converged);

  server.report_state("reference", PowerState::kState2, now);
  view = server.group_view("pair", now);
  EXPECT_EQ(view.fresh, 2);
  EXPECT_TRUE(view.converged);
  EXPECT_EQ(view.state, PowerState::kState2);

  // Disagreement: fresh but not converged.
  server.report_state("reference", PowerState::kState1, now);
  view = server.group_view("pair", now);
  EXPECT_EQ(view.fresh, 2);
  EXPECT_FALSE(view.converged);

  // Unknown group: the empty view.
  view = server.group_view("ghost", now);
  EXPECT_EQ(view.members, 0);
  EXPECT_FALSE(view.converged);
}

TEST(SyncServer, ReportedStationsListsLedgerInNameOrder) {
  SyncServer server;
  server.report_state("weather", PowerState::kState3);
  server.report_state("base", PowerState::kState2);
  server.report_state("reference", PowerState::kState1);
  const auto stations = server.reported_stations();
  ASSERT_EQ(stations.size(), 3u);
  EXPECT_EQ(stations[0], "base");
  EXPECT_EQ(stations[1], "reference");
  EXPECT_EQ(stations[2], "weather");
}

TEST(SyncServer, EndToEndKeepsStationsInLockstep) {
  // Both stations apply the min rule, so dGPS schedules match even though
  // their batteries differ.
  SyncServer server = paired_server();
  const auto base_local = PowerState::kState3;
  const auto ref_local = PowerState::kState2;
  server.report_state("base", base_local);
  server.report_state("reference", ref_local);
  const auto base_final =
      SyncRules::apply(base_local, server.override_for_client("base"));
  const auto ref_final =
      SyncRules::apply(ref_local, server.override_for_client("reference"));
  EXPECT_EQ(base_final, ref_final);
  EXPECT_EQ(base_final, PowerState::kState2);
}

}  // namespace
}  // namespace gw::core
