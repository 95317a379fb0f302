// Tail tolerance against HUNG (not dead) engines, in-process so the fault
// injector can be driven programmatically:
//
//   hedge        a stalled predict handler loses the race to a hedged
//                duplicate on the second engine — bit-identical answer,
//                no failover, hedge counters visible. On a 4-engine fleet
//                with two stalled engines, both late groups of ONE call
//                hedge, and more concurrent callers than the pool bound
//                all finish far inside the request timeout (no pool-lease
//                deadlock). A hedge reply older than the version the hedge
//                deployed — a concurrent hedge re-deployed a stale ledger
//                snapshot on the same target — is discarded.
//   quarantine   an engine stalling predicts AND health probes is
//                quarantined (users re-deploy on their next owners, then
//                partitions move; a publish racing the re-deploy still
//                reaches the next owner) and the serve call still answers
//                within its own call — but the last live engine is never
//                quarantined (slow beats empty); lifting the
//                fault lets the recovery prober fold the engine back in.
//   drain        drain_fleet() of a wedged engine returns within the drain
//                deadline instead of hanging teardown.
//
// Every test lifts its faults on exit (the workers share this process);
// stalls are interruptible, so lifting also releases any engine handler
// thread still sleeping inside a faulted handle_frame. A test's rules are
// installed AFTER any PELICAN_FAULT rules, so the chaos re-run of this
// suite keeps its seeded socket delays underneath every scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.hpp"
#include "router/engine_worker.hpp"
#include "router/router.hpp"
#include "router_support.hpp"

namespace pelican::router {
namespace {

namespace rt = pelican::router_testing;
using pelican::serve_testing::random_window;
using pelican::serve_testing::tiny_spec;

/// Installs `rules` behind the PELICAN_FAULT rules, if any.
void inject(std::vector<fault::Rule> rules) {
  fault::ParsedSpec spec;
  spec.seed = 1;
  if (const char* env = std::getenv("PELICAN_FAULT")) {
    spec = fault::parse_fault_spec(env);
  }
  spec.rules.insert(spec.rules.end(), rules.begin(), rules.end());
  fault::Injector::global().configure(std::move(spec.rules), spec.seed);
}

/// Lifts a test's faults, releasing stalled handlers.
void lift() { inject({}); }

/// Lifts the test's faults even when an ASSERT unwinds the test.
struct FaultGuard {
  ~FaultGuard() { lift(); }
};

/// Polls `condition` for up to five seconds.
template <typename Condition>
bool eventually(Condition condition) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (condition()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return condition();
}

class HedgeQuarantineTest : public ::testing::Test {
 protected:
  // Enough users that both engines own at least one with overwhelming
  // probability (the partition split depends on the per-run socket paths).
  static constexpr std::uint32_t kUsers = 16;

  void SetUp() override {
    rt::fill_store(dir_.store_root(), kUsers, /*versions=*/1);
    for (std::size_t i = 0; i < 2; ++i) {
      workers_.push_back(
          std::make_unique<EngineWorker>(rt::engine_config(dir_, i)));
      workers_.back()->start();
    }
  }

  void TearDown() override {
    lift();
    workers_.clear();
  }

  void deploy_all(Router& router) {
    for (std::size_t i = 0; i < 2; ++i) {
      (void)router.add_backend(dir_.socket_address(i));
    }
    for (std::uint32_t user = 0; user < kUsers; ++user) {
      router.deploy(user, 1, tiny_spec(), rt::temperature_of(user));
    }
  }

  /// Requests covering every user plus their reference answers.
  void build_requests() {
    Rng rng(17);
    for (std::uint32_t user = 0; user < kUsers; ++user) {
      requests_.push_back({user, random_window(rng), 3});
      expected_.push_back(rt::reference_deployment(user, 1)
                              .predict_top_k(requests_.back().window, 3));
    }
  }

  rt::TempDir dir_;
  std::vector<std::unique_ptr<EngineWorker>> workers_;
  std::vector<serve::PredictRequest> requests_;
  std::vector<std::vector<std::uint16_t>> expected_;
};

TEST_F(HedgeQuarantineTest, HedgeWinsAgainstStalledPredictHandler) {
  FaultGuard guard;
  RouterConfig config;
  config.hedge_delay_ms = 25.0;         // hedge fast, the stall is forever
  config.hedge_budget_fraction = 1.0;   // budget must not gate this test
  config.request_timeout_ms = 10000.0;  // the hedge, not a timeout, must win
  Router router(config);
  deploy_all(router);
  build_requests();

  // Stall ONLY engine 0's predict handling: deploys, probes, and everything
  // on engine 1 run normally.
  fault::Rule stall;
  stall.site = "engine.handle.predict_batch";
  stall.peer = dir_.socket_address(0);
  stall.action = fault::Action::kStall;
  stall.delay_ms = 60000.0;
  inject({stall});

  const auto start = std::chrono::steady_clock::now();
  const auto responses = router.serve(requests_);
  const auto elapsed = std::chrono::steady_clock::now() - start;

  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok) << "user " << requests_[i].user_id;
    EXPECT_EQ(responses[i].locations, expected_[i])
        << "the hedged copy must serve the same bits";
  }
  // The answer came from the hedge, not from waiting out the 10 s timeout.
  EXPECT_LT(elapsed, std::chrono::seconds(8));
  EXPECT_GE(router.metrics().counter("router_hedges_total").value(), 1u);
  EXPECT_GE(router.metrics().counter("router_hedge_wins_total").value(), 1u);
  // The stalled engine was never declared dead — hedging routed around it.
  EXPECT_EQ(router.live_backends().size() + router.quarantined_backends()
                                                .size(),
            2u);

  lift();  // release the stalled handler thread
}

TEST_F(HedgeQuarantineTest, LateGroupsHedgeWithinOneCallUnderPoolPressure) {
  FaultGuard guard;
  // A 4-engine fleet (the fixture runs engines 0 and 1), with enough users
  // that every engine owns some.
  constexpr std::size_t kEngines = 4;
  constexpr std::uint32_t kFleetUsers = 64;
  for (std::size_t i = workers_.size(); i < kEngines; ++i) {
    workers_.push_back(
        std::make_unique<EngineWorker>(rt::engine_config(dir_, i)));
    workers_.back()->start();
  }
  for (std::uint32_t user = kUsers; user < kFleetUsers; ++user) {
    rt::put_model(dir_.store_root(), user, 1);
  }
  RouterConfig config;
  config.hedge_delay_ms = 50.0;
  config.hedge_budget_fraction = 1.0;
  config.request_timeout_ms = 10000.0;
  Router router(config);
  for (std::size_t i = 0; i < kEngines; ++i) {
    (void)router.add_backend(dir_.socket_address(i));
  }
  Rng rng(23);
  std::vector<serve::PredictRequest> requests;
  std::vector<std::vector<std::uint16_t>> expected;
  std::vector<std::size_t> owned(kEngines, 0);
  for (std::uint32_t user = 0; user < kFleetUsers; ++user) {
    router.deploy(user, 1, tiny_spec(), rt::temperature_of(user));
    requests.push_back({user, random_window(rng), 3});
    expected.push_back(rt::reference_deployment(user, 1)
                           .predict_top_k(requests.back().window, 3));
    for (std::size_t i = 0; i < kEngines; ++i) {
      if (router.owner_of(user) == dir_.socket_address(i)) ++owned[i];
    }
  }
  ASSERT_GT(owned[0], 0u);
  ASSERT_GT(owned[2], 0u);

  // Engines 0 and 2 hang every predict; deploys, probes and engines 1 and 3
  // answer normally. Their groups hedge to engines 1 and 3.
  std::vector<fault::Rule> rules;
  for (const std::size_t stalled : {0, 2}) {
    fault::Rule stall;
    stall.site = "engine.handle.predict_batch";
    stall.peer = dir_.socket_address(stalled);
    stall.action = fault::Action::kStall;
    stall.delay_ms = 60000.0;
    rules.push_back(stall);
  }
  inject(rules);

  const auto check = [&](const std::vector<serve::PredictResponse>& got) {
    ASSERT_EQ(got.size(), requests.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_TRUE(got[i].ok) << "user " << requests[i].user_id
                             << (got[i].rejected ? " rejected" : " undeployed");
      EXPECT_EQ(got[i].locations, expected[i])
          << "a hedged answer must carry the direct engine's bits";
    }
  };

  // One call: both late groups hedge inside it, and both hedges win.
  check(router.serve(requests));
  EXPECT_EQ(router.metrics().counter("router_hedges_total").value(), 2u);
  EXPECT_EQ(router.metrics().counter("router_hedge_wins_total").value(), 2u);

  // More concurrent callers than the pool bound: callers queue for the
  // stalled engines' connections while holding leases elsewhere, and their
  // hedges may only try-lease. Every call must still finish far inside the
  // request timeout.
  constexpr std::size_t kCallers = 2 * kPoolConnections;
  constexpr int kCallsEach = 3;
  std::vector<std::vector<std::vector<serve::PredictResponse>>> results(
      kCallers);
  std::vector<double> slowest_ms(kCallers, 0.0);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int call = 0; call < kCallsEach; ++call) {
        const auto start = std::chrono::steady_clock::now();
        results[c].push_back(router.serve(requests));
        slowest_ms[c] = std::max(
            slowest_ms[c], std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count());
      }
    });
  }
  for (auto& caller : callers) caller.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    ASSERT_EQ(results[c].size(), static_cast<std::size_t>(kCallsEach));
    for (const auto& got : results[c]) check(got);
    EXPECT_LT(slowest_ms[c], config.request_timeout_ms / 4)
        << "caller " << c << " waited on the pool instead of hedging";
  }

  lift();  // release the stalled handlers
}

TEST_F(HedgeQuarantineTest, HedgeReplyOlderThanItsDeployIsDiscarded) {
  FaultGuard guard;
  RouterConfig config;
  config.hedge_delay_ms = 25.0;
  config.hedge_budget_fraction = 1.0;
  config.request_timeout_ms = 10000.0;
  Router router(config);
  deploy_all(router);
  const std::string owner = dir_.socket_address(0);
  const std::string target = dir_.socket_address(1);
  std::uint32_t user = kUsers;
  for (std::uint32_t u = 0; u < kUsers && user == kUsers; ++u) {
    if (router.owner_of(u) == owner) user = u;
  }
  ASSERT_LT(user, kUsers) << "engine 0 owns no user";
  rt::put_model(dir_.store_root(), user, 2);

  // The owner is slow, so every call hedges to the target. The FIRST hedge
  // deploy on the target (a ledger snapshot taken before the publish below)
  // is held back until after the second call's hedge deployed v2, and the
  // target's predicts run after both deploys landed — the interleaving of
  // two concurrent hedges the stale snapshot wins.
  std::vector<fault::Rule> rules(3);
  rules[0].site = "engine.handle.deploy";
  rules[0].peer = target;
  rules[0].action = fault::Action::kDelay;
  rules[0].delay_ms = 600.0;
  rules[0].max_count = 1;
  rules[1].site = "engine.handle.predict_batch";
  rules[1].peer = owner;
  rules[1].action = fault::Action::kDelay;
  rules[1].delay_ms = 3000.0;
  rules[2].site = "engine.handle.predict_batch";
  rules[2].peer = target;
  rules[2].action = fault::Action::kDelay;
  rules[2].delay_ms = 1500.0;
  inject(rules);

  Rng rng(31);
  const std::vector<serve::PredictRequest> request = {
      {user, random_window(rng), 3}};
  std::vector<serve::PredictResponse> early;
  std::thread first([&] { early = router.serve(request); });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  router.publish(user, 2);
  // Sent after publish returned: must carry v2, whichever copy answers.
  const auto late = router.serve(request);
  first.join();

  ASSERT_EQ(late.size(), 1u);
  ASSERT_TRUE(late[0].ok);
  EXPECT_EQ(late[0].model_version, 2u)
      << "a response sent after publish(u, 2) returned served an older "
         "version";
  EXPECT_EQ(late[0].locations, rt::reference_deployment(user, 2)
                                   .predict_top_k(request[0].window, 3));
  ASSERT_EQ(early.size(), 1u);
  EXPECT_TRUE(early[0].ok);
}

TEST_F(HedgeQuarantineTest, PublishDuringQuarantineReachesTheNextOwner) {
  FaultGuard guard;
  RouterConfig config;
  config.hedge_delay_ms = -1.0;  // the quarantine path only
  config.request_timeout_ms = 1000.0;
  config.probe_timeout_ms = 100.0;
  config.quarantine_holddown_ms = 60000.0;  // engine 0 stays out
  Router router(config);
  deploy_all(router);
  const std::string wedged = dir_.socket_address(0);
  std::uint32_t user = kUsers;
  for (std::uint32_t u = 0; u < kUsers && user == kUsers; ++u) {
    if (router.owner_of(u) == wedged) user = u;
  }
  ASSERT_LT(user, kUsers) << "engine 0 owns no user";
  rt::put_model(dir_.store_root(), user, 2);

  // Engine 0 hangs predicts and health probes, so the first timeout (at
  // ~1 s) quarantines it; its publish verb still answers. Engine 1 holds
  // the first failover re-deploy for 0.8 s, keeping the window between the
  // re-deploy's ledger snapshot and the ownership switch open.
  std::vector<fault::Rule> rules(3);
  for (const std::size_t i : {0, 1}) {
    rules[i].site = i == 0 ? "engine.handle.predict_batch"
                           : "engine.handle.health";
    rules[i].peer = wedged;
    rules[i].action = fault::Action::kStall;
    rules[i].delay_ms = 60000.0;
  }
  rules[2].site = "engine.handle.deploy";
  rules[2].peer = dir_.socket_address(1);
  rules[2].action = fault::Action::kDelay;
  rules[2].delay_ms = 800.0;
  rules[2].max_count = 1;
  inject(rules);

  Rng rng(37);
  const std::vector<serve::PredictRequest> request = {
      {user, random_window(rng), 3}};
  std::thread first([&] { (void)router.serve(request); });
  std::this_thread::sleep_for(std::chrono::milliseconds(1500));
  EXPECT_NO_THROW(router.publish(user, 2))  // inside the re-deploy window
      << "a publish during failover must reach an engine holding the user";
  first.join();

  EXPECT_EQ(router.quarantined_backends(), std::vector<std::string>{wedged});
  const auto late = router.serve(request);
  ASSERT_EQ(late.size(), 1u);
  ASSERT_TRUE(late[0].ok);
  EXPECT_EQ(late[0].model_version, 2u)
      << "the next owner must serve the version published during failover";
  EXPECT_EQ(late[0].locations, rt::reference_deployment(user, 2)
                                   .predict_top_k(request[0].window, 3));
}

TEST_F(HedgeQuarantineTest, StalledEngineIsQuarantinedThenRecovers) {
  FaultGuard guard;
  RouterConfig config;
  config.hedge_delay_ms = -1.0;  // quarantine path only, no hedging
  config.request_timeout_ms = 250.0;
  config.probe_timeout_ms = 100.0;
  config.probe_interval_ms = 50.0;
  config.quarantine_holddown_ms = 100.0;  // short: the test WANTS recovery
  Router router(config);
  deploy_all(router);
  build_requests();

  // Stall EVERYTHING engine 0 handles — predicts and health probes alike:
  // a genuinely wedged process that still accepts connections.
  fault::Rule stall;
  stall.site = "engine.handle.";
  stall.peer = dir_.socket_address(0);
  stall.action = fault::Action::kStall;
  stall.delay_ms = 60000.0;
  inject({stall});

  // One serve call must ride out the timeout, quarantine the wedged engine,
  // and answer every request from the survivor — correctly.
  const auto responses = router.serve(requests_);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].ok)
        << "user " << requests_[i].user_id
        << " must be answered via quarantine-failover";
    EXPECT_EQ(responses[i].locations, expected_[i]);
  }
  EXPECT_EQ(router.quarantined_backends(),
            std::vector<std::string>{dir_.socket_address(0)});
  EXPECT_EQ(router.live_backends(),
            std::vector<std::string>{dir_.socket_address(1)});
  EXPECT_GE(router.metrics().counter("router_request_timeouts_total").value(),
            1u);
  EXPECT_EQ(router.metrics().counter("router_quarantines_total").value(), 1u);

  // Lift the fault: the wedged engine answers probes again, and the
  // recovery prober folds it back into the fleet.
  lift();
  EXPECT_TRUE(eventually([&] { return router.live_backends().size() == 2; }))
      << "a recovered engine must be unquarantined";
  EXPECT_TRUE(router.quarantined_backends().empty());
  EXPECT_EQ(router.metrics().counter("router_unquarantines_total").value(),
            1u);

  // Back at full strength: the recovered engine owns partitions again and
  // serves its users with unchanged bits (its ledger re-deploy happened at
  // unquarantine).
  const auto after = router.serve(requests_);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_TRUE(after[i].ok);
    EXPECT_EQ(after[i].locations, expected_[i]);
  }
  bool recovered_engine_owns_something = false;
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    if (router.owner_of(user) == dir_.socket_address(0)) {
      recovered_engine_owns_something = true;
    }
  }
  EXPECT_TRUE(recovered_engine_owns_something)
      << "unquarantine must hand partitions back";
}

TEST_F(HedgeQuarantineTest, LastLiveBackendIsNeverQuarantined) {
  FaultGuard guard;
  RouterConfig config;
  config.hedge_delay_ms = -1.0;
  config.request_timeout_ms = 200.0;
  config.probe_timeout_ms = 100.0;
  Router router(config);
  const std::string only = dir_.socket_address(0);
  (void)router.add_backend(only);
  for (std::uint32_t user = 0; user < kUsers; ++user) {
    router.deploy(user, 1, tiny_spec(), rt::temperature_of(user));
  }
  build_requests();

  // The fleet's only engine hangs predicts and probes: every strike and
  // probe says "quarantine", but an empty fleet would reject everything.
  fault::Rule stall;
  stall.site = "engine.handle.";
  stall.peer = only;
  stall.action = fault::Action::kStall;
  stall.delay_ms = 60000.0;
  inject({stall});
  for (int call = 0; call < 2; ++call) (void)router.serve(requests_);
  EXPECT_EQ(router.live_backends(), std::vector<std::string>{only});
  EXPECT_TRUE(router.quarantined_backends().empty());

  lift();  // the engine recovers and answers at once
  const auto responses = router.serve(requests_);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    EXPECT_TRUE(responses[i].ok);
    EXPECT_EQ(responses[i].locations, expected_[i]);
  }
}

TEST_F(HedgeQuarantineTest, DrainOfWedgedEngineHonorsDrainDeadline) {
  FaultGuard guard;
  RouterConfig config;
  config.hedge_delay_ms = -1.0;
  config.drain_timeout_ms = 200.0;
  Router router(config);
  deploy_all(router);

  fault::Rule stall;
  stall.site = "engine.handle.drain";
  stall.peer = dir_.socket_address(0);
  stall.action = fault::Action::kStall;
  stall.delay_ms = 60000.0;
  inject({stall});

  const auto start = std::chrono::steady_clock::now();
  router.drain_fleet();  // engine 0 never acks; the deadline bounds the wait
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(5))
      << "a wedged engine must not hang drain_fleet";
  EXPECT_TRUE(router.live_backends().empty());

  lift();  // release engine 0's drain handler
  // Engine 1 received its drain and winds down on its own; worker teardown
  // in TearDown() covers engine 0.
  workers_[1]->wait();
}

}  // namespace
}  // namespace pelican::router
