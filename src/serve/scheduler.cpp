#include "serve/scheduler.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/thread_pool.hpp"
#include "common/timer.hpp"

namespace pelican::serve {

BatchScheduler::BatchScheduler(DeploymentRegistry& registry,
                               SchedulerConfig config)
    : registry_(registry), config_(config) {
  if (config_.max_batch == 0) {
    throw std::invalid_argument("BatchScheduler: max_batch must be > 0");
  }
  if (config_.max_queue == 0) {
    throw std::invalid_argument("BatchScheduler: max_queue must be > 0");
  }
  // Resolve every stage histogram once: per-request recording then never
  // touches the registry map/lock (the references are lifetime-stable).
  for (std::size_t s = 0; s < obs::kStageCount; ++s) {
    stage_hist_[s] = &metrics_.histogram(
        obs::stage_metric_name(static_cast<obs::Stage>(s)));
  }
  deadline_shed_counter_ = &metrics_.counter("requests_deadline_shed_total");
  drainer_ = std::thread([this] { drain_loop(); });
}

void BatchScheduler::maybe_sample_trace(PredictRequest& request) noexcept {
  if (request.trace_id != 0 || config_.trace_sample_every == 0 ||
      !instrumentation_enabled()) {
    return;
  }
  if (sample_counter_.fetch_add(1, std::memory_order_relaxed) %
          config_.trace_sample_every ==
      0) {
    request.trace_id = obs::new_trace_id();
  }
}

BatchScheduler::~BatchScheduler() {
  {
    const MutexLock lock(mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  space_cv_.notify_all();  // unblock kBlock submitters parked at the bound
  drainer_.join();
}

void BatchScheduler::deliver(Pending& pending, PredictResponse response) {
  if (auto* const* slot = std::get_if<PredictResponse*>(&pending.reply)) {
    **slot = std::move(response);
  } else {
    std::get<std::promise<PredictResponse>>(pending.reply)
        .set_value(std::move(response));
  }
}

void BatchScheduler::answer_rejected(Pending pending) {
  PredictResponse response;
  response.user_id = pending.request.user_id;
  response.ok = false;
  response.rejected = true;
  response.latency_ms = std::chrono::duration<double, std::milli>(
                            Clock::now() - pending.enqueued)
                            .count();
  stats_.record_shed();
  deliver(pending, std::move(response));
}

std::future<PredictResponse> BatchScheduler::submit(PredictRequest request) {
  Pending pending;
  pending.request = std::move(request);
  pending.enqueued = Clock::now();
  maybe_sample_trace(pending.request);
  // Stage timestamps only for traced requests: the untraced fast path pays
  // a counter bump and this branch, nothing else (see the <= 2% overhead
  // row in bench/serve_throughput).
  if (pending.request.trace_id != 0) pending.submit_ns = obs::now_ns();
  std::future<PredictResponse> future =
      pending.reply.emplace<std::promise<PredictResponse>>().get_future();

  std::vector<Pending> shed;  // answered after the lock is released
  {
    MutexLock lock(mutex_);
    if (queue_.size() >= config_.max_queue && !stop_) {
      switch (config_.policy) {
        case QueuePolicy::kBlock:
          while (!stop_ && queue_.size() >= config_.max_queue) {
            lock.wait(space_cv_);
          }
          break;
        case QueuePolicy::kReject:
          lock.unlock();
          answer_rejected(std::move(pending));
          return future;
        case QueuePolicy::kShedOldest:
          shed.push_back(std::move(queue_.front()));
          queue_.pop_front();
          break;
      }
    }
    if (stop_) {
      // Shutdown raced the submit: the drainer only answers what was queued
      // before stop, so refuse rather than enqueue into a dying engine.
      lock.unlock();
      answer_rejected(std::move(pending));
      return future;
    }
    if (pending.request.trace_id != 0) pending.admitted_ns = obs::now_ns();
    queue_.push_back(std::move(pending));
    // Record the peak WHILE holding the queue lock: observing the size
    // after unlocking raced concurrent drains, so a momentary peak (e.g.
    // "did the queue ever reach its bound?") could be under-reported.
    // record_queue_depth is an atomic CAS-max, so no second lock is taken
    // inside this critical section.
    stats_.record_queue_depth(queue_.size());
  }
  queue_cv_.notify_all();
  for (Pending& victim : shed) answer_rejected(std::move(victim));
  return future;
}

std::vector<PredictResponse> BatchScheduler::serve(
    std::span<const PredictRequest> requests) {
  const Clock::time_point entered = Clock::now();
  const std::uint64_t entered_ns = obs::now_ns();
  // No queue, so no promises: execute() writes each answer straight into
  // its slot here.
  std::vector<PredictResponse> responses(requests.size());
  std::vector<Pending> items;
  items.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    Pending pending;
    pending.request = requests[i];
    pending.reply = &responses[i];
    pending.enqueued = entered;
    // The sync path has no queue: "queue wait" degenerates to serve-entry ->
    // chunk pickup, which still captures scheduling delay under load.
    pending.submit_ns = entered_ns;
    pending.admitted_ns = entered_ns;
    maybe_sample_trace(pending.request);
    items.push_back(std::move(pending));
  }
  execute(std::move(items));
  return responses;
}

void BatchScheduler::drain_loop() {
  for (;;) {
    std::vector<Pending> items;
    {
      MutexLock lock(mutex_);
      while (!stop_ && queue_.empty()) lock.wait(queue_cv_);
      if (queue_.empty()) return;  // stopped with nothing left to answer

      // Hold for stragglers that could join a batch — but never past the
      // oldest request's max_delay deadline, and not at all once a full
      // batch is already queued or we are shutting down.
      const Clock::time_point deadline =
          queue_.front().enqueued + config_.max_delay;
      while (!stop_ && queue_.size() < config_.max_batch) {
        if (!lock.wait_until(queue_cv_, deadline)) break;  // deadline hit
      }

      items.reserve(queue_.size());
      while (!queue_.empty()) {
        items.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    space_cv_.notify_all();  // the queue just emptied: admit blocked callers
    execute(std::move(items));
  }
}

void BatchScheduler::execute(std::vector<Pending> items) {
  if (items.empty()) return;
  // Deadline admission: a request whose budget expired while it sat in the
  // queue is answered shed right here — the forward it would have joined
  // computes an answer nobody reads. Deadline-free traffic (the common
  // case) pays one branch per item and no clock read.
  if (std::any_of(items.begin(), items.end(), [](const Pending& pending) {
        return pending.request.deadline_ms > 0.0;
      })) {
    const Clock::time_point now = Clock::now();
    std::vector<Pending> admitted;
    admitted.reserve(items.size());
    std::uint64_t shed = 0;
    std::uint64_t shed_trace = 0;
    for (Pending& pending : items) {
      const double budget = pending.request.deadline_ms;
      const double waited_ms = std::chrono::duration<double, std::milli>(
                                   now - pending.enqueued)
                                   .count();
      if (budget > 0.0 && waited_ms >= budget) {
        deadline_shed_counter_->add();
        ++shed;
        if (shed_trace == 0) shed_trace = pending.request.trace_id;
        answer_rejected(std::move(pending));
      } else {
        admitted.push_back(std::move(pending));
      }
    }
    if (shed > 0 && instrumentation_enabled()) {
      // One burst event per drain, behind the instrumentation flag — the
      // uninstrumented hot path must not pay a journal lock (the
      // serve_throughput bench asserts the flight-recorder overhead bound).
      events_.emit(obs::EventType::kDeadlineShed, "engine",
                   std::to_string(shed) + " requests expired in queue",
                   shed_trace);
    }
    items = std::move(admitted);
    if (items.empty()) return;
  }
  // Stage-breakdown work (clock reads, histogram observes, span commits)
  // runs only for traced requests: router-stamped ids are always traced,
  // local requests 1-in-trace_sample_every. An untraced drain costs a
  // handful of branches — that is what keeps the batch-1 tracing overhead
  // within the bench's 2% bound.
  const bool instrument =
      instrumentation_enabled() &&
      std::any_of(items.begin(), items.end(), [](const Pending& pending) {
        return pending.request.trace_id != 0;
      });
  const std::uint64_t pickup_ns = instrument ? obs::now_ns() : 0;

  // Snapshot each row's deployment, once per user per drain, so all of a
  // user's rows run on one consistent model even if a publish lands now.
  std::vector<std::shared_ptr<const core::DeployedModel>> deployments(
      items.size());
  {
    std::unordered_map<std::uint32_t,
                       std::shared_ptr<const core::DeployedModel>>
        by_user;
    by_user.reserve(items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
      const std::uint32_t user_id = items[i].request.user_id;
      const auto [it, fresh] = by_user.try_emplace(user_id);
      if (fresh) {
        if (const DeploymentHandle found = registry_.find_handle(user_id)) {
          it->second = found.snapshot();
        }
      }
      deployments[i] = it->second;
    }
  }

  // Coalesce across users: group rows by the identity of their model's
  // first layer (interned, so every user on one trunk shares it; rows of
  // undeployed users group under null), in arrival order, and cut each
  // group into max_batch chunks. Deeper layers re-split inside the forward
  // (nn::infer_shared). Arrival order keeps chunking deterministic.
  std::unordered_map<const void*, std::size_t> group_of;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < items.size(); ++i) {
    const void* key = deployments[i] == nullptr
                          ? nullptr
                          : deployments[i]->model().stage_identity(0);
    const auto [it, fresh] = group_of.try_emplace(key, groups.size());
    if (fresh) groups.emplace_back();
    groups[it->second].push_back(i);
  }
  std::vector<std::span<const std::size_t>> chunks;
  for (const auto& indices : groups) {
    for (std::size_t start = 0; start < indices.size();
         start += config_.max_batch) {
      chunks.push_back(std::span<const std::size_t>(indices).subspan(
          start, std::min(config_.max_batch, indices.size() - start)));
    }
  }
  const std::uint64_t assembled_ns = instrument ? obs::now_ns() : 0;

  // One pool task per chunk. Deployed models are immutable and forward
  // through const infer(), so chunks never wait on one another — not even
  // two chunks of the same user.
  parallel_for(chunks.size(), [&](std::size_t c) {
    const std::span<const std::size_t> chunk = chunks[c];
    const bool deployed = deployments[chunk.front()] != nullptr;

    // A chunk is measured iff it carries a traced row; its stage costs are
    // then attributed to every traced row (they shared that one forward).
    const bool measured =
        instrument &&
        std::any_of(chunk.begin(), chunk.end(), [&](std::size_t i) {
          return items[i].request.trace_id != 0;
        });

    std::vector<std::optional<std::vector<std::uint16_t>>> results(
        chunk.size());
    core::PredictStageSeconds stage_seconds;
    const std::uint64_t chunk_start_ns = measured ? obs::now_ns() : 0;
    bool served = false;
    if (deployed) {
      std::vector<core::SharedRow> rows;
      rows.reserve(chunk.size());
      for (const std::size_t i : chunk) {
        rows.push_back({deployments[i].get(), &items[i].request.window,
                        items[i].request.k});
      }
      try {
        const Stopwatch watch;
        results = core::DeployedModel::predict_top_k_shared(
            rows, measured ? &stage_seconds : nullptr);
        const auto ok_rows = static_cast<std::size_t>(
            std::count_if(results.begin(), results.end(),
                          [](const auto& result) { return result.has_value(); }));
        if (ok_rows > 0) stats_.record_batch(ok_rows, watch.seconds());
        served = ok_rows > 0;
      } catch (...) {
        // Swallowing everything here is deliberate: an exception escaping a
        // drain would otherwise tear down the drainer thread
        // (std::terminate) and leave every outstanding future hanging. The
        // chunk's rows are answered ok = false instead.
        results.assign(chunk.size(), std::nullopt);
      }
    }

    if (measured && served) {
      // Chunk-level stage costs recorded once per forward, not per row: the
      // histogram then answers "what does a forward cost at this stage",
      // which is the number a batching engine can act on.
      using obs::Stage;
      const auto idx = [](Stage s) { return static_cast<std::size_t>(s); };
      stage_hist_[idx(Stage::kBatchAssembly)]->observe(
          static_cast<double>(assembled_ns - pickup_ns) / 1e6);
      stage_hist_[idx(Stage::kEncode)]->observe(stage_seconds.encode * 1e3);
      stage_hist_[idx(Stage::kForward)]->observe(stage_seconds.forward * 1e3);
      stage_hist_[idx(Stage::kRankTopK)]->observe(stage_seconds.rank * 1e3);
    }

    const Clock::time_point now = Clock::now();
    for (std::size_t j = 0; j < chunk.size(); ++j) {
      Pending& pending = items[chunk[j]];
      PredictResponse response;
      response.user_id = pending.request.user_id;
      // A row for an undeployed user, or whose window lies outside its
      // model's domain, fails alone.
      response.ok = results[j].has_value();
      if (deployed) {
        response.model_version = deployments[chunk[j]]->model_version();
      }
      if (response.ok) response.locations = std::move(*results[j]);
      response.latency_ms =
          std::chrono::duration<double, std::milli>(now - pending.enqueued)
              .count();
      if (response.ok) {
        stats_.record_request(response.latency_ms);
      } else {
        stats_.record_rejected();
      }
      if (measured && pending.request.trace_id != 0) {
        const double queue_wait_ms =
            static_cast<double>(pickup_ns - pending.admitted_ns) / 1e6;
        const double admission_ms =
            static_cast<double>(pending.admitted_ns - pending.submit_ns) /
            1e6;
        using obs::Stage;
        const auto idx = [](Stage s) { return static_cast<std::size_t>(s); };
        stage_hist_[idx(Stage::kQueueWait)]->observe(queue_wait_ms);
        stage_hist_[idx(Stage::kAdmission)]->observe(admission_ms);
        {
          // One batched commit per traced request: stack-local spans, a
          // single collector lock. Chunk-level stages are attributed to
          // every row of the chunk (its rows shared that one forward).
          const auto ns = [](double seconds) {
            return static_cast<std::uint64_t>(seconds * 1e9);
          };
          std::array<obs::Span, 6> spans;
          std::size_t n = 0;
          spans[n++] = {Stage::kAdmission, pending.submit_ns,
                        pending.admitted_ns - pending.submit_ns};
          spans[n++] = {Stage::kQueueWait, pending.admitted_ns,
                        pickup_ns - pending.admitted_ns};
          spans[n++] = {Stage::kBatchAssembly, pickup_ns,
                        assembled_ns - pickup_ns};
          std::uint64_t at = chunk_start_ns;
          spans[n++] = {Stage::kEncode, at, ns(stage_seconds.encode)};
          at += ns(stage_seconds.encode);
          spans[n++] = {Stage::kForward, at, ns(stage_seconds.forward)};
          at += ns(stage_seconds.forward);
          spans[n++] = {Stage::kRankTopK, at, ns(stage_seconds.rank)};
          traces_.record(pending.request.trace_id,
                         std::span<const obs::Span>(spans.data(), n));
          traces_.finish(pending.request.trace_id, response.latency_ms);
        }
      }
      deliver(pending, std::move(response));
    }
  });
}

}  // namespace pelican::serve
