// ServerStats: the measurement surface of the serving engine.
//
// Throughput claims ("batched serving is Nx single-query") are only as good
// as their instrumentation, so the scheduler records every request, every
// executed batch, and per-request queue-to-response latency here. Snapshots
// aggregate into the numbers the benches print: totals, a log2 batch-size
// histogram, and p50/p99 latency.
//
// Latency storage is an obs::Histogram — fixed log-bucket boundaries,
// bounded memory under open-ended traffic (this replaced the unbounded
// per-sample vector that an early TODO here flagged). The cost is that
// percentiles are now estimates with a documented relative error bound of
// obs::Histogram::kQuantileRelativeError (~9%, asserted against the
// exact-sample baseline in tests/serve/stats_merge_test.cpp).
//
// Fleet aggregation: a router in front of N engine processes needs one
// fleet-wide view. State is the raw recorded state (counters, histograms)
// — transportable over the router wire protocol — and merge() folds another
// engine's state in. Because every histogram shares the same bucket
// boundaries, the fold is an EXACT bucket-wise sum: the merged histogram
// equals what one engine would have recorded had it seen all the traffic,
// so fleet percentiles carry the same single-engine error bound instead of
// compounding (and are NOT an average of per-engine percentiles, which is
// statistically meaningless). peak_queue_depth merges as the max across
// engines — queues are per-process, so fleet-wide "peak depth" means "the
// worst any single engine queue got".
//
// peak_queue_depth is an atomic maintained by a CAS-max loop rather than a
// field under the stats mutex: the scheduler records it while still holding
// its queue mutex (the only way the observed depth is the true depth — see
// BatchScheduler::submit), and an atomic keeps that critical section free
// of a second lock.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "obs/metrics.hpp"

namespace pelican::serve {

class ServerStats {
 public:
  /// One executed batched forward of `batch_size` rows taking
  /// `forward_seconds` inside the model (lock held, encode + forward + topk).
  void record_batch(std::size_t batch_size, double forward_seconds);

  /// One answered request, measured from submission to response.
  void record_request(double latency_ms);

  /// One rejected request (user not deployed / undecodable batch).
  void record_rejected();

  /// One request shed by admission control (QueuePolicy kReject or
  /// kShedOldest) before reaching a model.
  void record_shed();

  /// Submit-queue depth observed at enqueue time. Lock-free (atomic
  /// CAS-max), so callers may — and should — invoke it while still holding
  /// the lock that made the depth reading consistent.
  void record_queue_depth(std::size_t depth) noexcept;

  struct Snapshot {
    std::size_t requests_served = 0;
    std::size_t requests_rejected = 0;
    std::size_t requests_shed = 0;
    std::size_t peak_queue_depth = 0;
    std::size_t batches_run = 0;
    double mean_batch_size = 0.0;
    std::size_t max_batch_size = 0;
    /// bucket b counts batches with size in [2^b, 2^(b+1)).
    std::vector<std::size_t> batch_size_log2_histogram;
    double total_forward_seconds = 0.0;
    double p50_latency_ms = 0.0;
    double p99_latency_ms = 0.0;
    double max_latency_ms = 0.0;
  };

  /// Consistent aggregate of everything recorded so far.
  [[nodiscard]] Snapshot snapshot() const;

  /// The raw recorded state, copyable and wire-transportable (the router's
  /// kMetrics verb carries one per engine). Field meanings match the private
  /// members below; `latency` carries the full bucket vector so merges stay
  /// exact.
  struct State {
    std::size_t requests = 0;
    std::size_t rejected = 0;
    std::size_t shed = 0;
    std::size_t peak_queue_depth = 0;
    std::size_t batches = 0;
    std::size_t batch_rows = 0;
    std::size_t max_batch = 0;
    std::vector<std::size_t> batch_hist;
    double forward_seconds = 0.0;
    obs::HistogramState latency;
  };

  /// Consistent copy of the raw state (one lock acquisition).
  [[nodiscard]] State state() const;

  /// Folds `other` into this instance: counters add, histograms add
  /// bucket-wise (shorter batch histograms — including empty ones — are
  /// treated as zero-filled; latency buckets share fixed boundaries so the
  /// sum is exact), and max fields (max_batch, peak_queue_depth,
  /// latency max) take the maximum.
  void merge(const State& other);

  /// Same, from a live instance (e.g. a router folding its own local stats
  /// into a fleet aggregate). Safe against self-merge and concurrent
  /// recording on either side.
  void merge(const ServerStats& other);

  void reset();

 private:
  mutable Mutex mutex_;
  std::size_t requests_ PELICAN_GUARDED_BY(mutex_) = 0;
  std::size_t rejected_ PELICAN_GUARDED_BY(mutex_) = 0;
  std::size_t shed_ PELICAN_GUARDED_BY(mutex_) = 0;
  std::atomic<std::size_t> peak_queue_depth_{0};  // lock-free CAS-max
  std::size_t batches_ PELICAN_GUARDED_BY(mutex_) = 0;
  std::size_t batch_rows_ PELICAN_GUARDED_BY(mutex_) = 0;
  std::size_t max_batch_ PELICAN_GUARDED_BY(mutex_) = 0;
  std::vector<std::size_t> batch_hist_ PELICAN_GUARDED_BY(mutex_);
  double forward_seconds_ PELICAN_GUARDED_BY(mutex_) = 0.0;
  obs::Histogram latency_ms_;  // wait-free observes; not guarded by mutex_
};

}  // namespace pelican::serve
