#include "router/router.hpp"

#include <poll.h>

#include <algorithm>
#include <array>
#include <climits>
#include <map>
#include <optional>
#include <stdexcept>
#include <thread>

#include "common/fault.hpp"
#include "common/timer.hpp"

namespace pelican::router {

namespace {

using Clock = std::chrono::steady_clock;

Clock::duration millis(double ms) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

/// One request/reply on a fresh connection, never the pool: the pool may be
/// what is hung, or torn down (quarantined backends).
std::vector<std::uint8_t> fresh_exchange(const Address& address,
                                         std::span<const std::uint8_t> frame,
                                         double timeout_ms) {
  Socket socket = Socket::connect_to(address);
  socket.set_io_timeout(timeout_ms);
  socket.send_frame(frame);
  return socket.recv_frame();
}

/// One health-verb round trip. Always a fresh connection: the pool (and
/// everything parked in it) may be exactly what is wedged.
bool probe(const Address& address, double timeout_ms) {
  try {
    (void)decode_health_reply(
        fresh_exchange(address, encode_health(), timeout_ms));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

/// The point `timeout_ms` from now; never (max) when <= 0 disables it.
Clock::time_point deadline_after(double timeout_ms) {
  return timeout_ms > 0.0 ? Clock::now() + millis(timeout_ms)
                          : Clock::time_point::max();
}

}  // namespace

/// One owning backend's slice of a serve() round.
struct Router::Group {
  std::string address;
  std::vector<std::size_t> indices;
  std::vector<std::uint8_t> frame;
  double timeout_ms = 0.0;
  Clock::time_point hedge_at = Clock::time_point::max();  ///< max = never
  /// [0] the primary exchange, [1] the hedge; empty = not in flight.
  std::array<Lease, 2> leases;
  std::array<Clock::time_point, 2> deadlines{};
  /// user → version the hedge deployed. A hedge reply carrying an OLDER
  /// one lost a race with a concurrent hedge's stale re-deploy.
  std::map<std::uint32_t, std::uint32_t> hedge_versions;
  bool done = false;
  bool answered = false;
  bool timed_out = false;  ///< the primary hit its deadline
  bool failed = false;     ///< the primary hit a transport error
  bool hedge_won = false;
  std::uint64_t sent_ns = 0;
  std::uint64_t hedge_start_ns = 0;  ///< 0 = no hedge fired
  std::uint64_t done_ns = 0;

  /// Closes connection `slot`; the primary's loss is the group's verdict.
  void drop(std::size_t slot, bool timeout) {
    leases[slot].reset();
    if (slot == 0) (timeout ? timed_out : failed) = true;
  }
};

Router::Router(RouterConfig config)
    : config_(config), partitioner_(kPartitions, kVirtualNodes) {
  using obs::Stage;
  wire_serialize_hist_ =
      &metrics_.histogram(obs::stage_metric_name(Stage::kWireSerialize));
  fanout_hist_ =
      &metrics_.histogram(obs::stage_metric_name(Stage::kRouterFanout));
  failover_hist_ =
      &metrics_.histogram(obs::stage_metric_name(Stage::kFailoverRetry));
  hedge_hist_ = &metrics_.histogram(obs::stage_metric_name(Stage::kHedge));
  // Registered eagerly: a counter that has never fired still exports as 0,
  // so dashboards (and the CI statsz snapshot) always carry the full set.
  hedges_counter_ = &metrics_.counter("router_hedges_total");
  hedge_wins_counter_ = &metrics_.counter("router_hedge_wins_total");
  retry_rounds_counter_ = &metrics_.counter("router_retry_rounds_total");
  reconnects_counter_ = &metrics_.counter("router_pool_reconnects_total");
  timeouts_counter_ = &metrics_.counter("router_request_timeouts_total");
  quarantines_counter_ = &metrics_.counter("router_quarantines_total");
  unquarantines_counter_ = &metrics_.counter("router_unquarantines_total");
  deadline_shed_counter_ =
      &metrics_.counter("router_deadline_shed_total");
  prober_ = std::thread([this] { probe_loop(); });
}

Router::~Router() {
  {
    const MutexLock lock(probe_mutex_);
    probe_stop_ = true;
  }
  probe_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
}

std::size_t Router::add_backend(const std::string& address) {
  auto backend = std::make_shared<Backend>(address);
  // Health-check before admitting: a typo'd address must fail the add, not
  // the first serve. Throws WireError when unreachable.
  (void)decode_health_reply(
      exchange(backend, encode_health(), config_.request_timeout_ms));
  const MutexLock lock(mutex_);
  // A quarantined address is NOT re-added here: the recovery prober owns
  // its way back (double membership would split its partitions).
  if (backends_.contains(address) || quarantined_.contains(address)) return 0;
  backends_.emplace(address, std::move(backend));
  return partitioner_.add_backend(address);
}

std::shared_ptr<Router::Backend> Router::find_backend(
    const std::string& address) const {
  const MutexLock lock(mutex_);
  const auto it = backends_.find(address);
  if (it == backends_.end() || !it->second->alive.load()) return nullptr;
  return it->second;
}

void Router::Lease::reset(bool reuse) noexcept {
  if (backend == nullptr) return;
  if (reuse) socket.set_io_timeout(0);  // pooled connections block at rest
  {
    const MutexLock lock(backend->pool_mutex);
    if (reuse && backend->alive.load()) {
      backend->idle.push_back(std::move(socket));
    } else {
      --backend->open_connections;  // closed, or the pool is torn down
    }
    backend->pool_cv.notify_one();
  }
  socket.close();
  backend.reset();
}

Router::Lease Router::acquire(const std::shared_ptr<Backend>& backend,
                              bool wait) {
  Lease lease;
  {
    MutexLock lock(backend->pool_mutex);
    while (wait && backend->alive.load() && backend->idle.empty() &&
           backend->open_connections >= kPoolConnections) {
      lock.wait(backend->pool_cv);
    }
    if (!backend->alive.load()) {
      throw WireError("backend dead: " + backend->address);
    }
    if (!backend->idle.empty()) {
      lease.socket = std::move(backend->idle.back());
      backend->idle.pop_back();
      lease.from_pool = true;
    } else if (backend->open_connections < kPoolConnections) {
      ++backend->open_connections;  // reserve a slot, connect off-lock
    } else {
      return lease;  // full pool, and the caller may not wait
    }
    lease.backend = backend;
  }
  // A failed connect throws; the lease's destructor frees the slot.
  if (!lease.from_pool) lease.socket = Socket::connect_to(backend->parsed);
  return lease;
}

bool Router::renew(Lease& lease) {
  if (!lease.from_pool) return false;
  lease.from_pool = false;
  reconnects_counter_->add();
  lease.socket = Socket::connect_to(lease.backend->parsed);
  return true;
}

std::vector<std::uint8_t> Router::send(Lease& lease,
                                       std::span<const std::uint8_t> frame,
                                       double timeout_ms, bool await_reply) {
  for (;;) {
    try {
      lease.socket.set_io_timeout(timeout_ms);
      lease.socket.send_frame(frame);
      if (!await_reply) return {};
      return lease.socket.recv_frame();
    } catch (const WireTimeout&) {
      throw;  // the connection's state is unknown; never retried here
    } catch (const WireError&) {
      if (!renew(lease)) throw;
    }
  }
}

std::vector<std::uint8_t> Router::exchange(
    const std::shared_ptr<Backend>& backend,
    std::span<const std::uint8_t> frame, double timeout_ms) {
  Lease lease = acquire(backend, /*wait=*/true);
  std::vector<std::uint8_t> reply =
      send(lease, frame, timeout_ms, /*await_reply=*/true);
  lease.reset(/*reuse=*/true);
  return reply;
}

void Router::remove_backend(const std::string& address, bool quarantine,
                            std::uint64_t trace_id) {
  const MutexLock membership(membership_mutex_);
  const HedgeFence fence(*this);
  std::shared_ptr<Backend> backend;
  std::vector<Move> moving;
  {
    const MutexLock lock(mutex_);
    const auto it = backends_.find(address);
    if (it == backends_.end()) return;  // another thread removed it first
    backend = it->second;
    // The users about to move are exactly those the removed backend owns;
    // their next owners come from the table as it WILL be.
    Partitioner next = partitioner_;
    (void)next.remove_backend(address);
    // Never quarantine the last live backend: a slow fleet still answers,
    // an empty one rejects everything.
    if (next.backend_count() == 0 && quarantine) return;
    for (const auto& [user, record] : ledger_) {
      if (next.backend_count() > 0 && partitioner_.owner_of(user) == address) {
        moving.push_back({user, record, backends_.at(next.owner_of(user))});
      }
    }
  }
  // Failover re-deploy, BEFORE the ownership table switches, so no
  // concurrent serve() reaches a new owner that lacks its user (meanwhile a
  // dead old owner fails fast, a hung one is hedged). The shared store
  // still holds every model. Best-effort: a failing next owner has its own
  // failover.
  for (;;) {
    redeploy(moving);
    const MutexLock lock(mutex_);
    if (!settle(moving)) continue;
    backend->alive.store(false);
    (void)partitioner_.remove_backend(address);
    backends_.erase(address);
    if (quarantine) {
      backend->quarantined_at_ns.store(obs::now_ns(),
                                       std::memory_order_relaxed);
      backend->quarantine_count.fetch_add(1, std::memory_order_relaxed);
      quarantined_.emplace(address, backend);
      quarantines_counter_->add();
    }
    break;
  }
  // Membership transitions always journal (they are rare and are the
  // events an operator greps for first); trace_id ties the quarantine to
  // the request whose timeout tripped it.
  events_.emit(
      quarantine ? obs::EventType::kQuarantine : obs::EventType::kFailover,
      address,
      quarantine ? "suspected hung; partitions moved, watching for recovery"
                 : "transport failure; partitions moved",
      trace_id);
  {
    // Tear down the pool and wake any thread parked waiting for a
    // connection slot — they observe !alive and fail over themselves.
    const MutexLock lock(backend->pool_mutex);
    backend->open_connections -= backend->idle.size();
    backend->idle.clear();
    backend->pool_cv.notify_all();
  }
}

void Router::redeploy(const std::vector<Move>& moves) {
  for (const Move& move : moves) {
    try {
      (void)fresh_exchange(move.target->parsed, move.record.frame(move.user),
                           config_.request_timeout_ms);
    } catch (const std::exception&) {
    }
  }
}

bool Router::settle(std::vector<Move>& moves) {
  std::vector<Move> stale;
  for (Move& move : moves) {
    const auto it = ledger_.find(move.user);
    if (it != ledger_.end() && it->second.version != move.record.version) {
      move.record = it->second;
      stale.push_back(std::move(move));
    }
  }
  moves.swap(stale);
  return moves.empty();
}

void Router::handle_backend_timeout(const std::string& address,
                                    std::uint64_t trace_id) {
  timeouts_counter_->add();
  const auto backend = find_backend(address);
  if (backend == nullptr) return;  // already removed or quarantined
  const std::uint64_t strikes =
      backend->timeout_strikes.fetch_add(1, std::memory_order_relaxed) + 1;
  if (strikes >= kQuarantineAfterTimeouts) {
    // Persistently slow is hung for the caller's purposes, whatever the
    // health verb says (its handler thread may be fine while predict
    // handlers are livelocked).
    remove_backend(address, /*quarantine=*/true, trace_id);
    return;
  }
  // Rate-limit the suspicion probe: a timeout storm across serve threads
  // should probe once per interval, not once per thread.
  const std::uint64_t now = obs::now_ns();
  std::uint64_t last = backend->last_probe_ns.load(std::memory_order_relaxed);
  const auto interval_ns =
      static_cast<std::uint64_t>(config_.probe_interval_ms * 1e6);
  if (last != 0 && now - last < interval_ns) return;
  if (!backend->last_probe_ns.compare_exchange_strong(
          last, now, std::memory_order_relaxed)) {
    return;  // a concurrent caller owns this probe
  }
  if (!probe(backend->parsed, config_.probe_timeout_ms)) {
    remove_backend(address, /*quarantine=*/true, trace_id);
  }
}

void Router::unquarantine_backend(const std::string& address) {
  const MutexLock membership(membership_mutex_);
  const HedgeFence fence(*this);
  std::shared_ptr<Backend> backend;
  std::vector<Move> regained;
  {
    const MutexLock lock(mutex_);
    const auto it = quarantined_.find(address);
    if (it == quarantined_.end()) return;
    backend = it->second;
    Partitioner next = partitioner_;
    (void)next.add_backend(address);
    for (const auto& [user, record] : ledger_) {
      if (next.owner_of(user) == address) {
        regained.push_back({user, record, backend});
      }
    }
  }
  // Re-deploy the users this backend is about to own BEFORE its partitions
  // move back: it may have missed deploys/publishes while quarantined, and
  // deploys are idempotent.
  for (;;) {
    redeploy(regained);
    const MutexLock lock(mutex_);
    if (!settle(regained)) continue;
    if (quarantined_.erase(address) == 0) return;  // drained meanwhile
    backend->alive.store(true);
    backend->timeout_strikes.store(0, std::memory_order_relaxed);
    backends_.emplace(address, backend);
    (void)partitioner_.add_backend(address);
    unquarantines_counter_->add();
    break;
  }
  events_.emit(obs::EventType::kUnquarantine, address,
               "probe answered past hold-down; partitions restored");
}

bool Router::in_quarantine_holddown(const Backend& backend) const {
  if (config_.quarantine_holddown_ms <= 0.0) return false;
  // A strike-quarantined backend's health verb may have answered all
  // along — the hold-down (doubling per repeated quarantine, capped at
  // 64x) is what keeps a hung-but-healthy engine from flapping back in.
  const std::uint64_t count =
      backend.quarantine_count.load(std::memory_order_relaxed);
  const std::uint64_t exponent = std::min<std::uint64_t>(count - 1, 6);
  const double holddown_ns = config_.quarantine_holddown_ms * 1e6 *
                             static_cast<double>(std::uint64_t{1} << exponent);
  const std::uint64_t since =
      obs::now_ns() - backend.quarantined_at_ns.load(std::memory_order_relaxed);
  return static_cast<double>(since) < holddown_ns;
}

void Router::probe_loop() {
  for (;;) {
    {
      MutexLock lock(probe_mutex_);
      const auto wake =
          std::chrono::steady_clock::now() + millis(config_.probe_interval_ms);
      while (!probe_stop_) {
        if (!lock.wait_until(probe_cv_, wake)) break;  // interval elapsed
      }
      if (probe_stop_) return;
    }
    std::vector<std::shared_ptr<Backend>> suspects;
    {
      const MutexLock lock(mutex_);
      suspects.reserve(quarantined_.size());
      for (const auto& [address, backend] : quarantined_) {
        suspects.push_back(backend);
      }
    }
    for (const auto& backend : suspects) {
      if (in_quarantine_holddown(*backend)) continue;
      if (probe(backend->parsed, config_.probe_timeout_ms)) {
        unquarantine_backend(backend->address);
      }
    }
  }
}

double Router::resolve_hedge_delay() const {
  if (config_.hedge_delay_ms > 0.0) return config_.hedge_delay_ms;
  if (config_.hedge_delay_ms < 0.0 || config_.hedge_budget_fraction <= 0.0) {
    return -1.0;  // hedging disabled
  }
  // Auto mode: hedge when a fan-out exceeds its own observed p99 — the
  // classic tail-at-scale delay. Until the histogram has seen enough
  // round trips to mean anything, fall back to a quarter of the request
  // timeout (hedges stay rare either way, and the budget caps them).
  constexpr std::uint64_t kMinSamples = 64;
  if (fanout_hist_->count() >= kMinSamples) {
    return std::max(kHedgeMinDelayMs, fanout_hist_->percentile(99.0));
  }
  const double fallback = config_.request_timeout_ms > 0.0
                              ? config_.request_timeout_ms / 4.0
                              : 500.0;
  return std::max(kHedgeMinDelayMs, fallback);
}

Ack Router::admin_to_owner(std::uint32_t user,
                           const std::vector<std::uint8_t>& frame,
                           std::string* answered) {
  // One failover retry: the first attempt discovers a dead owner at most
  // once, the second runs against the repartitioned fleet.
  for (int attempt = 0; attempt < 2; ++attempt) {
    std::string owner;
    {
      const MutexLock lock(mutex_);
      if (partitioner_.backend_count() == 0) {
        throw WireError("no live backends");
      }
      owner = partitioner_.owner_of(user);
    }
    const auto backend = find_backend(owner);
    if (backend == nullptr) {
      remove_backend(owner);
      continue;
    }
    try {
      const Ack ack =
          decode_ack(exchange(backend, frame, config_.request_timeout_ms));
      if (answered != nullptr) *answered = owner;
      return ack;
    } catch (const WireTimeout&) {
      handle_backend_timeout(owner);
    } catch (const WireError&) {
      remove_backend(owner);
    }
  }
  throw WireError("no live backend for user " + std::to_string(user));
}

void Router::deploy(std::uint32_t user, std::uint32_t version,
                    const mobility::EncodingSpec& spec, double temperature) {
  // Ledger first: if the owner dies between the ack and our bookkeeping,
  // failover must already know how to re-deploy this user. Every failure
  // path must undo the write — back to the PREVIOUS record when this was a
  // re-deploy (the engine still serves the old version, and failover must
  // keep restoring it), gone entirely when the user was never deployed
  // (or a failed deploy would materialize later as a ghost deployment).
  std::optional<Deployment> previous;
  {
    const MutexLock lock(mutex_);
    const auto it = ledger_.find(user);
    if (it != ledger_.end()) previous = it->second;
    ledger_[user] = Deployment{version, temperature, spec};
  }
  const auto roll_back = [&] {
    const MutexLock lock(mutex_);
    if (previous.has_value()) {
      ledger_[user] = *previous;
    } else {
      ledger_.erase(user);
    }
  };
  Ack ack;
  try {
    ack =
        admin_to_owner(user, encode_deploy({user, version, temperature, spec}));
  } catch (...) {
    roll_back();
    throw;
  }
  if (!ack.ok) {
    roll_back();
    throw std::runtime_error("Router: deploy of user " + std::to_string(user) +
                             " refused: " + ack.message);
  }
}

void Router::publish(std::uint32_t user, std::uint32_t version) {
  // A membership change re-checks the ledger before it switches owners
  // (settle); one that switched this user between the engine's ack and the
  // ledger write below missed this version, so the new owner gets it too.
  for (std::string owner;;) {
    const Ack ack =
        admin_to_owner(user, encode_publish({user, version}), &owner);
    if (!ack.ok) {
      throw std::runtime_error("Router: publish of user " +
                               std::to_string(user) + " v" +
                               std::to_string(version) +
                               " refused: " + ack.message);
    }
    const MutexLock lock(mutex_);
    const auto it = ledger_.find(user);
    if (it != ledger_.end()) it->second.version = version;
    if (partitioner_.backend_count() == 0 ||
        partitioner_.owner_of(user) == owner) {
      break;
    }
  }
  events_.emit(obs::EventType::kPublish, "user " + std::to_string(user),
               "v" + std::to_string(version) + " live (stall-free swap)");
}

std::vector<serve::PredictResponse> Router::serve(
    std::span<const serve::PredictRequest> requests) {
  const Stopwatch watch;
  const bool instrument = instrumentation_enabled();

  // One trace per serve() call: requests arriving untraced are stamped with
  // a fresh id (on a local copy — the caller's span is const); requests
  // already carrying ids keep them, and the router's spans are recorded
  // under every distinct id in the batch (bounded — a batch is one logical
  // call, so distinct ids are rare).
  std::vector<std::uint64_t> trace_ids;
  std::vector<serve::PredictRequest> stamped;
  std::span<const serve::PredictRequest> reqs = requests;
  if (instrument && !requests.empty()) {
    constexpr std::size_t kMaxDistinctIds = 16;
    for (const auto& request : requests) {
      if (request.trace_id == 0) continue;
      if (std::find(trace_ids.begin(), trace_ids.end(), request.trace_id) ==
              trace_ids.end() &&
          trace_ids.size() < kMaxDistinctIds) {
        trace_ids.push_back(request.trace_id);
      }
    }
    if (trace_ids.empty()) {
      const std::uint64_t trace = obs::new_trace_id();
      stamped.assign(requests.begin(), requests.end());
      for (auto& request : stamped) request.trace_id = trace;
      reqs = stamped;
      trace_ids.push_back(trace);
    }
  }
  std::vector<obs::Span> spans;  // router-side spans, committed at the end
  const auto record = [&](obs::Stage stage, obs::Histogram* hist,
                          std::uint64_t start_ns, std::uint64_t end_ns) {
    spans.push_back({stage, start_ns, end_ns - start_ns});
    hist->observe(spans.back().duration_ms());
  };

  std::vector<serve::PredictResponse> responses(reqs.size());
  std::vector<std::size_t> remaining(reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) remaining[i] = i;

  const double hedge_delay = resolve_hedge_delay();
  const std::uint64_t trace = trace_ids.empty() ? 0 : trace_ids.front();

  std::size_t attempts = 0;
  {
    const MutexLock lock(mutex_);
    attempts = partitioner_.backend_count() + 1;
  }

  std::size_t round = 0;
  while (!remaining.empty() && attempts-- > 0) {
    const std::uint64_t round_start_ns = instrument ? obs::now_ns() : 0;

    // Shed requests whose deadline budget is already gone: forwarding them
    // would compute answers nobody reads (the engine would shed them at its
    // admission anyway — this saves the wire trip too).
    {
      const double elapsed_ms = watch.milliseconds();
      std::vector<std::size_t> alive_requests;
      alive_requests.reserve(remaining.size());
      std::uint64_t shed = 0;
      for (const std::size_t i : remaining) {
        if (reqs[i].deadline_ms > 0.0 && elapsed_ms >= reqs[i].deadline_ms) {
          deadline_shed_counter_->add();
          ++shed;
          responses[i].user_id = reqs[i].user_id;
          responses[i].rejected = true;  // ok stays false
        } else {
          alive_requests.push_back(i);
        }
      }
      if (shed > 0 && instrument) {
        // One journal entry per BURST, not per request — sheds cluster
        // (a stall expires a whole round at once) and the counter above
        // already carries the exact total.
        events_.emit(obs::EventType::kDeadlineShed, "router",
                     std::to_string(shed) + " of " +
                         std::to_string(shed + alive_requests.size()) +
                         " requests past deadline in round " +
                         std::to_string(round),
                     trace);
      }
      remaining.swap(alive_requests);
      if (remaining.empty()) break;
    }

    // Group the outstanding requests by owning backend. std::map keys the
    // groups by address, so the fan-out order is deterministic.
    std::map<std::string, std::vector<std::size_t>> owners;
    {
      const MutexLock lock(mutex_);
      if (partitioner_.backend_count() == 0) break;
      for (const std::size_t i : remaining) {
        owners[partitioner_.owner_of(reqs[i].user_id)].push_back(i);
      }
    }

    std::vector<Group> groups;
    groups.reserve(owners.size());

    // Send every group's batch. Primary leases are taken in address order,
    // so a call waiting on a full pool holds leases only on backends sorted
    // before it: concurrent calls cannot wait in a cycle.
    for (const auto& [address, indices] : owners) {
      Group& group = groups.emplace_back();
      group.address = address;
      group.indices = indices;
      const auto backend = find_backend(address);
      if (backend == nullptr) continue;  // unanswered: retried next round
      // Build the batch with DECREMENTED budgets: the engine's admission
      // check must see what is left after the router's own time, not the
      // caller's original allowance.
      std::vector<serve::PredictRequest> batch;
      batch.reserve(indices.size());
      double max_remaining_ms = 0.0;
      const double elapsed_ms = watch.milliseconds();
      for (const std::size_t i : indices) {
        serve::PredictRequest request = reqs[i];
        if (request.deadline_ms > 0.0) {
          request.deadline_ms =
              std::max(0.001, request.deadline_ms - elapsed_ms);
          max_remaining_ms = std::max(max_remaining_ms, request.deadline_ms);
        }
        batch.push_back(std::move(request));
      }
      // The exchange deadline: the configured timeout, tightened to the
      // batch's largest remaining budget (no point waiting for answers
      // whose readers have all given up).
      group.timeout_ms = config_.request_timeout_ms;
      if (max_remaining_ms > 0.0) {
        group.timeout_ms = group.timeout_ms <= 0.0
                               ? max_remaining_ms
                               : std::min(group.timeout_ms, max_remaining_ms);
      }

      auto& injector = fault::Injector::global();
      if (injector.active()) {
        injector.sleep_for(injector.decide("router.exchange", address));
      }

      const std::uint64_t encode_start_ns = instrument ? obs::now_ns() : 0;
      group.frame = encode_predict_batch(batch);
      group.sent_ns = instrument ? obs::now_ns() : 0;
      if (instrument) {
        record(obs::Stage::kWireSerialize, wire_serialize_hist_,
               encode_start_ns, group.sent_ns);
      }
      forwards_.fetch_add(1, std::memory_order_relaxed);
      try {
        group.leases[0] = acquire(backend, /*wait=*/true);
        (void)send(group.leases[0], group.frame, group.timeout_ms);
        group.deadlines[0] = deadline_after(group.timeout_ms);
        if (hedge_delay >= 0.0) {
          group.hedge_at = Clock::now() + millis(hedge_delay);
        }
      } catch (const WireTimeout&) {
        group.drop(0, /*timeout=*/true);
      } catch (const WireError&) {
        group.drop(0, /*timeout=*/false);
      }
    }

    // One poll() set drives every exchange: replies, hedge times and
    // deadlines, until each group is answered or out of options.
    std::vector<pollfd> fds;
    std::vector<std::pair<Group*, std::size_t>> slots;
    for (;;) {
      fds.clear();
      slots.clear();
      Clock::time_point wake = Clock::time_point::max();
      for (Group& group : groups) {
        if (group.done) continue;
        bool in_flight = false;
        for (std::size_t k = 0; k < 2; ++k) {
          if (group.leases[k].backend == nullptr) continue;
          in_flight = true;
          fds.push_back({group.leases[k].socket.fd(), POLLIN, 0});
          slots.emplace_back(&group, k);
          wake = std::min(wake, group.deadlines[k]);
        }
        if (!in_flight) {  // out of options: unanswered
          group.done = true;
          group.done_ns = obs::now_ns();
        }
        if (group.leases[0].backend != nullptr) {
          wake = std::min(wake, group.hedge_at);
        }
      }
      if (fds.empty()) break;

      // (No deadline at all — blocking mode — clamps to ~24 days.)
      const auto wait =
          std::chrono::ceil<std::chrono::milliseconds>(wake - Clock::now());
      const int timeout =
          static_cast<int>(std::clamp<std::int64_t>(wait.count(), 0, INT_MAX));
      // Read what is ready; expire what is unread past its deadline (its
      // state is unknown: closed). Read first, so a reply that arrived
      // during a blocking hedge still counts.
      const int ready = ::poll(fds.data(), fds.size(), timeout);
      const Clock::time_point now = Clock::now();
      for (std::size_t i = 0; i < fds.size(); ++i) {
        auto [group, k] = slots[i];
        if (group->done) continue;
        if (ready > 0 && fds[i].revents != 0) {
          receive(*group, k, trace, instrument, responses);
        } else if (now >= group->deadlines[k]) {
          group->drop(k, /*timeout=*/true);
        }
      }
      // At most one hedge per pass: its re-deploys block, so replies that
      // arrive meanwhile are read (freeing their leases) first.
      for (Group& group : groups) {
        if (!group.done && group.leases[0].backend != nullptr &&
            now >= group.hedge_at) {
          hedge(group, reqs, hedge_delay);
          break;
        }
      }
    }

    // Every lease is released now, so the post-mortems below (which may
    // re-deploy users over the pools) cannot wait on this call's sockets.
    remaining.clear();
    for (const Group& group : groups) {
      if (!group.answered) {
        remaining.insert(remaining.end(), group.indices.begin(),
                         group.indices.end());
      }
      if (group.frame.empty()) continue;  // never forwarded
      if (instrument) {
        record(obs::Stage::kRouterFanout, fanout_hist_, group.sent_ns,
               group.done_ns);
        if (group.hedge_start_ns != 0) {
          record(obs::Stage::kHedge, hedge_hist_, group.hedge_start_ns,
                 group.done_ns);
        }
      }
      // A timeout (or losing the hedge race) is the HUNG-engine signal:
      // probe and maybe quarantine. A transport error is the dead-engine
      // signal.
      if (group.timed_out) {
        handle_backend_timeout(group.address, trace);
      } else if (group.failed) {
        remove_backend(group.address, /*quarantine=*/false, trace);
      } else if (group.hedge_won) {
        handle_backend_timeout(group.address, trace);
      }
    }
    if (instrument && round > 0) {
      // Rounds past the first exist only because a backend failed: the
      // whole round is failover work, visible as its own span.
      record(obs::Stage::kFailoverRetry, failover_hist_, round_start_ns,
             obs::now_ns());
    }
    if (!remaining.empty() && attempts > 0) {
      // Exponential backoff between retry rounds: the repartition already
      // happened synchronously, so this only paces a flapping fleet, never
      // the first failover.
      retry_rounds_counter_->add();
      if (round > 0) {
        const auto doublings = std::min<std::size_t>(round, 10);
        std::this_thread::sleep_for(millis(
            std::min(kRetryBackoffMaxMs,
                     kRetryBackoffBaseMs *
                         static_cast<double>(std::uint64_t{1} << doublings))));
      }
    }
    ++round;
  }

  // Requests that survived every retry round with no live owner (never
  // answered, so their responses are still default: ok = false).
  for (const std::size_t i : remaining) {
    responses[i].user_id = reqs[i].user_id;
    responses[i].rejected = true;
  }

  // Router-side accounting: end-to-end latency including wire + failover.
  // (Engine-side latency/batch stats live in fleet_metrics().stats.)
  const double latency_ms = watch.milliseconds();
  for (auto& response : responses) {
    response.latency_ms = latency_ms;
    if (response.ok) {
      stats_.record_request(latency_ms);
    } else if (response.rejected) {
      stats_.record_shed();
    } else {
      stats_.record_rejected();
    }
  }
  if (instrument && !spans.empty()) {
    for (const std::uint64_t id : trace_ids) {
      traces_.record(id, spans);
      traces_.finish(id, latency_ms);
    }
  }
  return responses;
}

void Router::hedge(Group& group, std::span<const serve::PredictRequest> reqs,
                   double hedge_delay) {
  group.hedge_at = Clock::time_point::max();
  // Hedge only when the budget allows another duplicate and the fleet has
  // a second choice.
  const std::uint64_t fired = hedges_fired_.load(std::memory_order_relaxed);
  const std::uint64_t total = forwards_.load(std::memory_order_relaxed);
  if (static_cast<double>(fired + 1) >
      config_.hedge_budget_fraction * static_cast<double>(total)) {
    return;
  }
  // The target: the next live backend after the owner in address order.
  const auto live = live_backends();  // sorted
  auto next = std::upper_bound(live.begin(), live.end(), group.address);
  if (next == live.end()) next = live.begin();
  const auto target = live.size() < 2 || *next == group.address
                          ? nullptr
                          : find_backend(*next);
  if (target == nullptr) return;
  // Never wait for the target's pool: this call holds unread leases, so
  // waiting could close a cycle with another call. A full pool defers the
  // hedge (skipping it would wait out the whole exchange timeout).
  Lease lease;
  try {
    lease = acquire(target, /*wait=*/false);
  } catch (const WireError&) {
    return;
  }
  // Hedge re-deploys and membership changes exclude each other (see
  // HedgeFence), so an older ledger snapshot never lands on a backend
  // around its ownership switch. A change in progress defers the hedge.
  hedging_.fetch_add(1);
  if (lease.backend == nullptr || changing_.load()) {
    hedging_.fetch_sub(1);
    group.hedge_at = Clock::now() + millis(hedge_delay);
    return;
  }

  group.hedge_start_ns = obs::now_ns();
  hedges_fired_.fetch_add(1, std::memory_order_relaxed);
  hedges_counter_->add();
  try {
    // The hedge target may not hold these users yet: re-deploy them from
    // the ledger first. Deploys are idempotent, and the target pulls the
    // SAME (user, version) artifacts from the shared store — which is why
    // the hedged answer is bit-identical to the primary's and taking
    // whichever comes first is sound. A user the target owns by now is
    // not re-deployed: its membership change put the current version
    // there, and this snapshot could undo a newer publish.
    std::map<std::uint32_t, Deployment> records;
    {
      const MutexLock lock(mutex_);
      for (const std::size_t i : group.indices) {
        const std::uint32_t user = reqs[i].user_id;
        const auto it = ledger_.find(user);
        if (it == ledger_.end()) throw WireError("hedge: user not in ledger");
        group.hedge_versions.emplace(user, it->second.version);
        if (partitioner_.owner_of(user) != *next) {
          records.emplace(user, it->second);
        }
      }
    }
    for (const auto& [user, record] : records) {
      const Ack ack = decode_ack(send(lease, record.frame(user),
                                      config_.request_timeout_ms,
                                      /*await_reply=*/true));
      if (!ack.ok) throw WireError("hedge deploy refused: " + ack.message);
    }
    (void)send(lease, group.frame, group.timeout_ms);
    group.leases[1] = std::move(lease);
    group.deadlines[1] = deadline_after(group.timeout_ms);
  } catch (...) {
    // The hedge failed; the primary (or the next retry round) still owns
    // this slice. Hedge failures never fail the TARGET over — it was
    // drafted in, not proven guilty.
  }
  hedging_.fetch_sub(1);
}

void Router::receive(Group& group, std::size_t slot, std::uint64_t trace,
                     bool instrument,
                     std::vector<serve::PredictResponse>& responses) {
  Lease& lease = group.leases[slot];
  std::vector<serve::PredictResponse> decoded;
  try {
    try {
      decoded = decode_predict_replies(lease.socket.recv_frame());
    } catch (const WireTimeout&) {
      throw;
    } catch (const WireError&) {
      // A parked connection that rotted: resend once on a fresh one.
      if (!renew(lease)) throw;
      (void)send(lease, group.frame, group.timeout_ms);
      group.deadlines[slot] = deadline_after(group.timeout_ms);
      return;
    }
    if (decoded.size() != group.indices.size()) {
      throw WireError("predict reply count mismatch from " +
                      lease.backend->address);
    }
    for (const auto& response : decoded) {
      const auto it = group.hedge_versions.find(response.user_id);
      if (slot == 1 && it != group.hedge_versions.end() &&
          response.model_version < it->second) {
        throw WireError("hedge reply older than its deploy");
      }
    }
  } catch (const WireTimeout&) {
    group.drop(slot, /*timeout=*/true);
    return;
  } catch (const std::exception&) {
    group.drop(slot, /*timeout=*/false);
    return;
  }

  // The first good reply wins; the other connection still owes a reply, so
  // it is closed, not pooled.
  lease.backend->timeout_strikes.store(0, std::memory_order_relaxed);
  for (std::size_t j = 0; j < group.indices.size(); ++j) {
    responses[group.indices[j]] = std::move(decoded[j]);
  }
  group.answered = true;
  if (slot == 1) {
    group.hedge_won = true;
    hedge_wins_counter_->add();
    if (instrument) {
      events_.emit(obs::EventType::kHedgeWin, lease.backend->address,
                   "duplicate read beat " + group.address, trace);
    }
  }
  lease.reset(/*reuse=*/true);
  group.leases[1 - slot].reset();
  group.done = true;
  group.done_ns = obs::now_ns();
}

Router::FleetMetrics Router::fleet_metrics() {
  FleetMetrics out;
  serve::ServerStats fleet;
  for (const auto& address : live_backends()) {
    const auto backend = find_backend(address);
    if (backend == nullptr) continue;
    try {
      EngineMetricsReport report = decode_metrics_reply(
          exchange(backend, encode_metrics(), config_.request_timeout_ms));
      for (obs::TraceRecord& rec : report.traces) rec.source = address;
      fleet.merge(report.stats);
      obs::merge_state(out.registry, report.registry);
      out.traces.insert(out.traces.end(), report.traces.begin(),
                        report.traces.end());
      obs::merge_events(out.events, report.events, address);
      out.engines.emplace_back(address, std::move(report));
    } catch (const WireTimeout&) {
      handle_backend_timeout(address);
    } catch (const std::exception&) {
      remove_backend(address);
    }
  }
  out.stats = fleet.snapshot();
  // The router's own side of the traces: its registry folds into the fleet
  // registry (same fixed buckets — still exact), and its journal records
  // join the pool tagged "router" so statsz can pair them with the engine
  // records sharing their trace ids.
  obs::merge_state(out.registry, metrics_.state());
  for (obs::TraceRecord rec : traces_.journal()) {
    rec.source = "router";
    out.traces.push_back(std::move(rec));
  }
  // The event journals interleave by wall clock (events carry unix_ms
  // exactly so cross-process ordering is meaningful).
  obs::merge_events(out.events, events_.snapshot(), "router");
  obs::sort_events(out.events);
  return out;
}

std::vector<std::pair<std::string, HealthReply>> Router::fleet_health() {
  std::vector<std::pair<std::string, HealthReply>> out;
  for (const auto& address : live_backends()) {
    const auto backend = find_backend(address);
    if (backend == nullptr) continue;
    try {
      out.emplace_back(address,
                       decode_health_reply(exchange(
                           backend, encode_health(),
                           config_.request_timeout_ms)));
    } catch (const WireTimeout&) {
      handle_backend_timeout(address);
    } catch (const std::exception&) {
      remove_backend(address);
    }
  }
  return out;
}

EngineMetricsReport Router::self_report() {
  EngineMetricsReport report;
  report.stats = stats_.state();
  report.registry = metrics_.state();
  report.traces = traces_.journal();
  report.events = events_.snapshot();
  return report;
}

void Router::drain_fleet() {
  for (const auto& address : live_backends()) {
    const auto backend = find_backend(address);
    if (backend == nullptr) continue;
    try {
      (void)decode_ack(
          exchange(backend, encode_drain(), config_.drain_timeout_ms));
    } catch (const std::exception&) {
      // Bounded by drain_timeout_ms: a wedged engine is abandoned, not
      // waited on (the drain contract in wire.hpp).
    }
  }
  // Quarantined engines are processes too: offer them the same graceful
  // exit on a fresh connection (their pools are already torn down), still
  // bounded by the drain deadline.
  std::vector<std::shared_ptr<Backend>> quarantined;
  {
    const MutexLock lock(mutex_);
    for (const auto& [address, backend] : quarantined_) {
      quarantined.push_back(backend);
    }
  }
  for (const auto& backend : quarantined) {
    try {
      (void)decode_ack(fresh_exchange(backend->parsed, encode_drain(),
                                      config_.drain_timeout_ms));
    } catch (const std::exception&) {
    }
  }
  // The fleet is gone by contract; leave the router in a defined state.
  const MutexLock lock(mutex_);
  for (auto& [address, backend] : backends_) {
    backend->alive.store(false);
    (void)partitioner_.remove_backend(address);
    const MutexLock pool_lock(backend->pool_mutex);
    backend->open_connections -= backend->idle.size();
    backend->idle.clear();
    backend->pool_cv.notify_all();
  }
  backends_.clear();
  quarantined_.clear();
}

std::vector<std::string> Router::live_backends() const {
  std::vector<std::string> out;
  {
    const MutexLock lock(mutex_);
    out.reserve(backends_.size());
    for (const auto& [address, backend] : backends_) {
      if (backend->alive.load()) out.push_back(address);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> Router::quarantined_backends() const {
  std::vector<std::string> out;
  {
    const MutexLock lock(mutex_);
    out.reserve(quarantined_.size());
    for (const auto& [address, backend] : quarantined_) {
      out.push_back(address);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string Router::owner_of(std::uint32_t user) const {
  const MutexLock lock(mutex_);
  return partitioner_.owner_of(user);
}

std::size_t Router::deployed_users() const {
  const MutexLock lock(mutex_);
  return ledger_.size();
}

}  // namespace pelican::router
