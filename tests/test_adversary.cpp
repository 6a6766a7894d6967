// Tests for the adversary module: slot policies, the exact token bucket,
// injection adversaries (and their Def.-1 compliance via the validator).
#include <gtest/gtest.h>

#include "adversary/bucket_validator.h"
#include "adversary/injectors.h"
#include "adversary/slot_policies.h"
#include "baselines/listen.h"
#include "sim/engine.h"
#include "sim_helpers.h"
#include "test_protocols.h"

namespace asyncmac::adversary {
namespace {

constexpr Tick U = kTicksPerUnit;

// ------------------------------------------------------------ slot policies

TEST(SlotPolicies, UniformConstant) {
  UniformSlotPolicy p(2 * U);
  EXPECT_EQ(p.slot_length(1, 1, 0, SlotAction::kListen), 2 * U);
  EXPECT_EQ(p.slot_length(5, 99, 12345, SlotAction::kTransmitPacket), 2 * U);
  EXPECT_EQ(p.fixed_length(3), 2 * U);
}

TEST(SlotPolicies, UniformRejectsSubUnit) {
  EXPECT_THROW(UniformSlotPolicy(U - 1), std::invalid_argument);
}

// Every named policy refuses n = 0 or R = 0 (perstation would divide by R).
TEST(SlotPolicies, FactoryRejectsZeroStationsOrBound) {
  for (const auto& name : slot_policy_names()) {
    SCOPED_TRACE(name);
    EXPECT_THROW(make_slot_policy(name, 3, 0, 1), std::invalid_argument);
    EXPECT_THROW(make_slot_policy(name, 0, 2, 1), std::invalid_argument);
    EXPECT_NE(make_slot_policy(name, 3, 2, 1), nullptr);
  }
}

TEST(SlotPolicies, PerStationLengths) {
  PerStationSlotPolicy p({U, 2 * U, 3 * U});
  EXPECT_EQ(p.slot_length(1, 1, 0, SlotAction::kListen), U);
  EXPECT_EQ(p.slot_length(3, 7, 0, SlotAction::kListen), 3 * U);
  EXPECT_EQ(p.fixed_length(2), 2 * U);
}

TEST(SlotPolicies, CyclicPatternWithShift) {
  CyclicSlotPolicy p({U, 2 * U}, /*shift_per_station=*/true);
  // Station 1, slot 1: index (0 + 1) % 2 = 1 -> 2U.
  EXPECT_EQ(p.slot_length(1, 1, 0, SlotAction::kListen), 2 * U);
  EXPECT_EQ(p.slot_length(1, 2, 0, SlotAction::kListen), U);
  EXPECT_EQ(p.slot_length(2, 1, 0, SlotAction::kListen), U);
}

TEST(SlotPolicies, CyclicNotFixed) {
  CyclicSlotPolicy p({U, 2 * U});
  EXPECT_EQ(p.fixed_length(1), 0);
}

TEST(SlotPolicies, RandomWithinRangeAndDeterministic) {
  RandomSlotPolicy a(2, U, 4 * U, 42), b(2, U, 4 * U, 42);
  for (SlotIndex j = 1; j <= 200; ++j) {
    const Tick la = a.slot_length(1, j, 0, SlotAction::kListen);
    EXPECT_GE(la, U);
    EXPECT_LE(la, 4 * U);
    EXPECT_EQ(la, b.slot_length(1, j, 0, SlotAction::kListen));
  }
}

TEST(SlotPolicies, RandomPerStationStreamsIndependent) {
  RandomSlotPolicy a(2, U, 4 * U, 42);
  RandomSlotPolicy b(2, U, 4 * U, 42);
  // Drawing station 1 many times must not perturb station 2's stream.
  for (int i = 0; i < 50; ++i) a.slot_length(1, 1, 0, SlotAction::kListen);
  EXPECT_EQ(a.slot_length(2, 1, 0, SlotAction::kListen),
            b.slot_length(2, 1, 0, SlotAction::kListen));
}

TEST(SlotPolicies, StretchTransmitsOnlyStretchesTransmissions) {
  StretchTransmitsPolicy p(5 * U);
  EXPECT_EQ(p.slot_length(1, 1, 0, SlotAction::kListen), U);
  EXPECT_EQ(p.slot_length(1, 2, 0, SlotAction::kTransmitPacket), 5 * U);
  EXPECT_EQ(p.slot_length(1, 3, 0, SlotAction::kTransmitControl), 5 * U);
}

// ----------------------------------------------------------------- bucket

TEST(CostBucket, StartsFullAndCaps) {
  CostBucket b(util::Ratio(1, 2), 10 * U);
  EXPECT_EQ(b.tokens(), 10 * U);
  b.advance(100 * U);  // would accrue 50U; capped at burst
  EXPECT_EQ(b.tokens(), 10 * U);
}

TEST(CostBucket, AccruesAtExactRate) {
  CostBucket b(util::Ratio(1, 2), 10 * U);
  b.spend(10 * U);
  EXPECT_EQ(b.tokens(), 0);
  b.advance(4 * U);
  EXPECT_EQ(b.tokens(), 2 * U);
  EXPECT_TRUE(b.can_afford(2 * U));
  EXPECT_FALSE(b.can_afford(2 * U + 1));
}

TEST(CostBucket, SpendRequiresAffordability) {
  CostBucket b(util::Ratio(1, 2), U);
  EXPECT_THROW(b.spend(2 * U), std::logic_error);
}

TEST(CostBucket, ZeroRateOnlyBurst) {
  CostBucket b(util::Ratio::zero(), 3 * U);
  b.advance(1000 * U);
  EXPECT_EQ(b.tokens(), 3 * U);
  b.spend(3 * U);
  b.advance(2000 * U);
  EXPECT_EQ(b.tokens(), 0);
}

// -------------------------------------------------------------- validator

TEST(BucketValidator, EmptyLogCompliant) {
  EXPECT_FALSE(
      check_leaky_bucket({}, util::Ratio(1, 2), U).violated);
  EXPECT_EQ(effective_burstiness({}, util::Ratio(1, 2)), 0);
}

TEST(BucketValidator, SingleInjectionNeedsItsCostAsBurst) {
  std::vector<sim::Injection> log{{100, 1, 5 * U}};
  EXPECT_EQ(effective_burstiness(log, util::Ratio(1, 2)), 5 * U);
  EXPECT_FALSE(check_leaky_bucket(log, util::Ratio(1, 2), 5 * U).violated);
  EXPECT_TRUE(check_leaky_bucket(log, util::Ratio(1, 2), 5 * U - 1).violated);
}

TEST(BucketValidator, DetectsMidStreamBurstViolation) {
  // Slow trickle, then an instantaneous dump: the window around the dump
  // must be flagged even though the overall average rate is low.
  std::vector<sim::Injection> log;
  for (int k = 0; k < 10; ++k)
    log.push_back({static_cast<Tick>(k) * 100 * U, 1, U});
  for (int k = 0; k < 5; ++k) log.push_back({1000 * U, 1, U});
  const auto v = check_leaky_bucket(log, util::Ratio(1, 10), 2 * U);
  EXPECT_TRUE(v.violated);
  EXPECT_EQ(v.window_end, 1000 * U);
  EXPECT_GT(v.cost_in_window, v.allowed);
}

TEST(BucketValidator, SteadyRateCompliant) {
  // One unit-cost packet every 2 units == rate 1/2 exactly.
  std::vector<sim::Injection> log;
  for (int k = 0; k < 1000; ++k)
    log.push_back({static_cast<Tick>(k) * 2 * U, 1, U});
  EXPECT_FALSE(check_leaky_bucket(log, util::Ratio(1, 2), U).violated);
  EXPECT_TRUE(check_leaky_bucket(log, util::Ratio(49, 100), U).violated);
}

TEST(BucketValidator, EffectiveBurstinessRoundTrips) {
  std::vector<sim::Injection> log;
  for (int k = 0; k < 100; ++k)
    log.push_back({static_cast<Tick>(k) * U, 1, U});
  const util::Ratio rho(3, 4);
  const Tick b = effective_burstiness(log, rho);
  EXPECT_FALSE(check_leaky_bucket(log, rho, b).violated);
  EXPECT_TRUE(check_leaky_bucket(log, rho, b - 1).violated);
}

// -------------------------------------------------------------- injectors

TEST(SaturatingInjector, RespectsLeakyBucketExactly) {
  const util::Ratio rho(7, 10);
  const Tick burst = 5 * U;
  auto inj = std::make_unique<SaturatingInjector>(
      rho, burst, TargetPattern::kRoundRobin);
  inj->set_keep_log(true);
  auto* raw = inj.get();
  sim::EngineConfig cfg;
  cfg.n = 3;
  cfg.bound_r = 2;
  auto protocols =
      asyncmac::testing::make_protocols<baselines::ListenProtocol>(3);
  sim::Engine e(cfg, std::move(protocols),
                asyncmac::testing::make_slot_policy("perstation", 3, 2),
                std::move(inj));
  e.run(sim::until(5000 * U));
  const auto& log = raw->log();
  ASSERT_GT(log.size(), 100u);
  EXPECT_FALSE(check_leaky_bucket(log, rho, burst).violated);
  // It should actually use most of its budget (long-run rate near rho).
  EXPECT_GT(static_cast<double>(raw->injected_cost()),
            0.9 * rho.to_double() * 5000 * U);
}

TEST(SaturatingInjector, RoundRobinCyclesStations) {
  auto inj = std::make_unique<SaturatingInjector>(
      util::Ratio(1, 2), 10 * U, TargetPattern::kRoundRobin);
  inj->set_keep_log(true);
  auto* raw = inj.get();
  sim::EngineConfig cfg;
  cfg.n = 4;
  cfg.bound_r = 1;
  auto protocols =
      asyncmac::testing::make_protocols<baselines::ListenProtocol>(4);
  sim::Engine e(cfg, std::move(protocols),
                asyncmac::testing::make_slot_policy("sync", 4, 1),
                std::move(inj));
  e.run(sim::until(100 * U));
  const auto& log = raw->log();
  ASSERT_GE(log.size(), 8u);
  for (std::size_t i = 0; i < log.size(); ++i)
    EXPECT_EQ(log[i].station, 1 + i % 4);
}

TEST(SaturatingInjector, SingleTargetsOneStation) {
  auto inj = std::make_unique<SaturatingInjector>(
      util::Ratio(1, 2), 4 * U, TargetPattern::kSingle, 3);
  inj->set_keep_log(true);
  auto* raw = inj.get();
  sim::EngineConfig cfg;
  cfg.n = 4;
  cfg.bound_r = 1;
  auto protocols =
      asyncmac::testing::make_protocols<baselines::ListenProtocol>(4);
  sim::Engine e(cfg, std::move(protocols),
                asyncmac::testing::make_slot_policy("sync", 4, 1),
                std::move(inj));
  e.run(sim::until(200 * U));
  for (const auto& i : raw->log()) EXPECT_EQ(i.station, 3u);
  EXPECT_GT(e.queue_size(3), 0u);
  EXPECT_EQ(e.queue_size(1), 0u);
}

TEST(SaturatingInjector, CostsMatchFixedSlotLengths) {
  auto inj = std::make_unique<SaturatingInjector>(
      util::Ratio(1, 2), 10 * U, TargetPattern::kRoundRobin);
  inj->set_keep_log(true);
  auto* raw = inj.get();
  sim::EngineConfig cfg;
  cfg.n = 2;
  cfg.bound_r = 3;
  auto protocols =
      asyncmac::testing::make_protocols<baselines::ListenProtocol>(2);
  sim::Engine e(cfg, std::move(protocols),
                std::make_unique<PerStationSlotPolicy>(
                    std::vector<Tick>{U, 3 * U}),
                std::move(inj));
  e.run(sim::until(100 * U));
  for (const auto& i : raw->log())
    EXPECT_EQ(i.cost, i.station == 1 ? U : 3 * U);
}

TEST(BurstyInjector, CompliantAndActuallyBursty) {
  const util::Ratio rho(1, 2);
  const Tick burst = 20 * U;
  sim::EngineConfig cfg;
  cfg.n = 2;
  cfg.bound_r = 1;
  auto protocols =
      asyncmac::testing::make_protocols<testing::ScriptProtocol>(
          2, std::vector<SlotAction>{});
  // BurstyInjector has no log; validate via a wrapper engine run and the
  // queue growth pattern: everything arrives in clumps of ~burst size.
  auto inj = std::make_unique<BurstyInjector>(rho, burst, 40 * U,
                                              TargetPattern::kSingle, 1);
  sim::Engine e(cfg, std::move(protocols),
                asyncmac::testing::make_slot_policy("sync", 2, 1),
                std::move(inj));
  e.run(sim::until(39 * U));
  const auto after_first = e.queue_size(1);
  EXPECT_EQ(after_first, 20u);  // the initial full bucket dumped at once
  e.run(sim::until(200 * U));
  EXPECT_GT(e.queue_size(1), after_first);
}

TEST(ScriptedInjector, RejectsUnsortedScript) {
  std::vector<sim::Injection> bad{{10 * U, 1, U}, {5 * U, 1, U}};
  EXPECT_THROW(ScriptedInjector{bad}, std::invalid_argument);
}

TEST(ScriptedInjector, DeliversAtScheduledSlotBoundaries) {
  std::vector<sim::Injection> script{{U / 2, 1, U}, {3 * U, 1, U}};
  sim::EngineConfig cfg;
  cfg.n = 1;
  cfg.bound_r = 1;
  auto protocols =
      asyncmac::testing::make_protocols<baselines::ListenProtocol>(1);
  sim::Engine e(cfg, std::move(protocols),
                asyncmac::testing::make_slot_policy("sync", 1, 1),
                std::make_unique<ScriptedInjector>(script));
  e.run(sim::until(2 * U));
  EXPECT_EQ(e.queue_size(1), 1u);  // mid-slot injection appeared
  e.run(sim::until(10 * U));
  EXPECT_EQ(e.queue_size(1), 2u);
}

TEST(DrainChasing, AlternatesAwayFromLastSuccess) {
  // Greedy stations + chasing injector: the injector must keep switching
  // targets, so both stations receive packets over time.
  sim::EngineConfig cfg;
  cfg.n = 2;
  cfg.bound_r = 1;
  auto protocols = asyncmac::testing::make_protocols<testing::GreedyProtocol>(2);
  sim::Engine e(cfg, std::move(protocols),
                asyncmac::testing::make_slot_policy("sync", 2, 1),
                std::make_unique<DrainChasingInjector>(
                    util::Ratio(1, 2), 2 * U, 1, 2));
  e.run(sim::until(400 * U));
  EXPECT_GT(e.stats().station[0].injected, 10u);
  EXPECT_GT(e.stats().station[1].injected, 10u);
}

}  // namespace
}  // namespace asyncmac::adversary
