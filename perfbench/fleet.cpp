// Fleet workloads: Router -> 2 pelican_engined processes over Unix sockets,
// 4096 users each holding its own stored copy of one LSTM.
//
//   fleet_uniform      every call is 16 requests from 16 distinct users drawn
//                      uniformly: engine batches stay near 1, so router
//                      fan-out, hedging, wire and socket costs dominate.
//   fleet_hot_publish  users drawn Zipf(1.0), so same-user rows coalesce in
//                      the engine scheduler, while a publisher thread
//                      publishes new versions of head users at 20/s.
//
// Each run: set-up (store writes, engine spawn, deploys) repeated and timed,
// a short warm-up, then three measured phases — open loop at `lo` and at
// `hi` with seeded Poisson call arrivals, then a closed loop of callers with
// one call each in flight. Open-loop latency runs from each call's due time.
//
// The fleet workloads run on one CPU (main.cpp), so the rates are a share
// of one CPU's capacity: about 5,000 requests/s in the closed loop, so `lo`
// and `hi` load it to about 20% and 40%. The gated figures (throughput and
// latency) come from the closed loop, whose run-to-run spread on a small VM
// is a third of the open loop's; the open-loop latencies, the 25 ms SLO and
// the generator's lateness are reported per layer.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/rng.hpp"
#include "core/service.hpp"
#include "nn/model.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "router/local_fleet.hpp"
#include "router/router.hpp"
#include "router/wire.hpp"
#include "store/model_store.hpp"

namespace perfbench {

namespace {

using pelican::Rng;
namespace mobility = pelican::mobility;
namespace router = pelican::router;
namespace serve = pelican::serve;
namespace obs = pelican::obs;
namespace store = pelican::store;
namespace nn = pelican::nn;
namespace core = pelican::core;

constexpr std::size_t kCallSize = 16;
constexpr std::size_t kTopK = 3;
constexpr std::size_t kLocations = 40;
constexpr std::size_t kHidden = 32;
constexpr double kLoRps = 1000.0;
constexpr double kHiRps = 2000.0;
/// Latency limit of the `hi` SLO; a failed request misses it.
constexpr double kSloMs = 25.0;
constexpr double kPublishHz = 20.0;
/// Publishes target the head of the Zipf ranking.
constexpr std::size_t kHeadUsers = 32;
/// Versions >= 2 cycle through this many distinct weight sets, so a
/// response served by the wrong version shows in its top-k ids.
constexpr std::size_t kModelVariants = 4;
/// One response in this many is checked against an in-process reference.
constexpr std::uint64_t kSampleEvery = 64;
constexpr double kWarmupS = 0.5;
/// The population — which users are popular, and the model weights — is
/// part of the workload's definition and the same for every seed; the
/// seed draws the request stream (users, windows, arrivals, publishes).
/// Otherwise the seed would move where the hot users live, and so the
/// cost of the run, not just its inputs.
constexpr std::uint64_t kPopulationSeed = 2021;
const char* const kScope = "personal";
const char* const kPhaseNames[3] = {"lo", "hi", "closed"};

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

mobility::Window random_window(Rng& rng) {
  mobility::Window window;
  for (auto& step : window.steps) {
    step.entry_bin = static_cast<std::uint8_t>(rng.below(mobility::kEntryBins));
    step.duration_bin =
        static_cast<std::uint8_t>(rng.below(mobility::kDurationBins));
    step.day_of_week =
        static_cast<std::uint8_t>(rng.below(mobility::kDaysPerWeek));
    step.location = static_cast<std::uint16_t>(rng.below(kLocations));
  }
  window.next_location = static_cast<std::uint16_t>(rng.below(kLocations));
  return window;
}

/// Folds a request's user and window into one word (stream fingerprints).
std::uint64_t window_key(std::uint32_t user, const mobility::Window& window) {
  std::uint64_t key = user;
  for (const auto& step : window.steps) {
    key = (key << 16) ^ (std::uint64_t{step.entry_bin} << 12) ^
          (std::uint64_t{step.duration_bin} << 8) ^
          (std::uint64_t{step.day_of_week} << 5) ^ step.location;
  }
  return key ^ (std::uint64_t{window.next_location} << 48);
}

/// Draws the users of one call: 16 distinct uniform users, or 16 Zipf(1.0)
/// draws (repeats allowed — they are what coalesces) over a seeded
/// rank -> user permutation.
class UserSampler {
 public:
  UserSampler(std::size_t users, bool zipf, Rng rng)
      : users_(users), zipf_(zipf), by_rank_(users) {
    for (std::size_t i = 0; i < users; ++i) {
      by_rank_[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = users; i > 1; --i) {
      std::swap(by_rank_[i - 1], by_rank_[rng.below(i)]);
    }
    if (zipf_) {
      cdf_.resize(users);
      double total = 0.0;
      for (std::size_t r = 0; r < users; ++r) {
        total += 1.0 / static_cast<double>(r + 1);
        cdf_[r] = total;
      }
      for (double& c : cdf_) c /= total;
    }
  }

  std::uint32_t draw(Rng& rng) const {
    if (!zipf_) return by_rank_[rng.below(users_)];
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    const auto rank = std::min<std::size_t>(
        static_cast<std::size_t>(it - cdf_.begin()), users_ - 1);
    return by_rank_[rank];
  }

  std::uint32_t head(std::size_t rank) const { return by_rank_[rank]; }

  std::vector<serve::PredictRequest> make_call(Rng& rng) const {
    std::vector<serve::PredictRequest> call;
    call.reserve(kCallSize);
    while (call.size() < kCallSize) {
      const std::uint32_t user = draw(rng);
      if (!zipf_ && std::any_of(call.begin(), call.end(), [&](const auto& r) {
            return r.user_id == user;
          })) {
        continue;
      }
      call.push_back({user, random_window(rng), kTopK});
    }
    return call;
  }

 private:
  std::size_t users_;
  bool zipf_;
  std::vector<std::uint32_t> by_rank_;
  std::vector<double> cdf_;
};

/// A sampled response, verified after the run against a reference.
struct Sample {
  std::uint32_t user = 0;
  mobility::Window window;
  std::uint32_t version = 0;
  std::vector<std::uint16_t> locations;
};

/// A response for a published (head) user, with its call's send time.
struct Observation {
  std::uint32_t user = 0;
  double sent_s = 0.0;
  std::uint32_t version = 0;
};

struct PublishRecord {
  std::uint32_t user = 0;
  std::uint32_t version = 0;
  double returned_s = 0.0;
};

struct CallSpan {
  std::uint64_t trace_id = 0;
  int phase = 0;
  double due_s = 0.0;
  double sent_s = 0.0;
  double done_s = 0.0;
  std::size_t ok = 0;
};

/// Per-thread records, merged after the threads join.
struct Log {
  std::vector<double> latency_ms[3];  ///< per request
  std::vector<double> lag_ms;         ///< open-loop send - due
  std::vector<CallSpan> spans;
  std::vector<Sample> samples;
  std::vector<Observation> observations;
  std::uint64_t sent[3] = {0, 0, 0};
  std::uint64_t ok[3] = {0, 0, 0};
  std::uint64_t slo_hits_hi = 0;
  std::vector<std::string> failures;

  void absorb(Log&& other) {
    for (int p = 0; p < 3; ++p) {
      latency_ms[p].insert(latency_ms[p].end(), other.latency_ms[p].begin(),
                           other.latency_ms[p].end());
      sent[p] += other.sent[p];
      ok[p] += other.ok[p];
    }
    lag_ms.insert(lag_ms.end(), other.lag_ms.begin(), other.lag_ms.end());
    spans.insert(spans.end(), other.spans.begin(), other.spans.end());
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    observations.insert(observations.end(), other.observations.begin(),
                        other.observations.end());
    slo_hits_hi += other.slo_hits_hi;
    failures.insert(failures.end(), other.failures.begin(),
                    other.failures.end());
  }
};

struct Shape {
  std::size_t users = 4096;
  /// The first lays the store out on disk; setup_s is the median of the rest.
  std::size_t setup_reps = 4;
  bool hot = false;
  /// Load-generating threads: 4, or 3 plus the publisher.
  std::size_t callers = 4;
};

struct SetupStats {
  /// Repetitions after the first, which rewrite the store the first laid out.
  std::vector<double> seconds;
  /// Per repetition, the first included: store writes, engine spawn,
  /// deploys (seconds).
  std::vector<std::array<double, 3>> parts;
  std::vector<double> put_ms;
  std::vector<double> deploy_ms;
  double rss_before_mb = 0.0;
  double rss_after_mb = 0.0;
  double store_bytes = 0.0;
  std::size_t store_artifacts = 0;
};

/// One live fleet. Members are destroyed router first, then the engines.
struct Fleet {
  std::unique_ptr<router::LocalFleet> engines;
  std::unique_ptr<router::Router> front;

  void tear_down() {
    front.reset();
    engines.reset();
  }
};

/// CPU seconds (user + system, all threads) used so far by this process
/// and the engines.
double fleet_cpu_s(const router::LocalFleet& engines) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  double total =
      static_cast<double>(self.ru_utime.tv_sec + self.ru_stime.tv_sec) +
      1e-6 * static_cast<double>(self.ru_utime.tv_usec + self.ru_stime.tv_usec);
  const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  for (std::size_t i = 0; i < engines.size(); ++i) {
    std::ifstream stat("/proc/" + std::to_string(engines.pid(i)) + "/stat");
    std::string text((std::istreambuf_iterator<char>(stat)),
                     std::istreambuf_iterator<char>());
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of them.
    std::istringstream rest(text.substr(text.rfind(')') + 2));
    std::string field;
    double utime = 0.0;
    double stime = 0.0;
    for (int f = 1; f <= 13 && rest >> field; ++f) {
      if (f == 12) utime = std::stod(field);
      if (f == 13) stime = std::stod(field);
    }
    total += (utime + stime) / tick;
  }
  return total;
}

/// Writes back the dirty pages of the file system that holds `dir`, so a
/// set-up that rewrites the store does not wait for the write-back of the
/// previous one's files.
void write_back(const std::filesystem::path& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  (void)::syncfs(fd);
  ::close(fd);
}

double engines_rss_mb(const router::LocalFleet& engines) {
  double total = 0.0;
  for (std::size_t i = 0; i < engines.size(); ++i) {
    total += proc_status_mb(engines.pid(i), "VmRSS");
  }
  return total;
}

class FleetBench {
 public:
  explicit FleetBench(const Options& options)
      : options_(options),
        spec_{mobility::SpatialLevel::kBuilding, kLocations},
        base_rng_(options.seed) {
    shape_.users = options.small ? 256 : 4096;
    shape_.setup_reps = options.small ? 2 : 4;
    shape_.hot = options.workload == "fleet_hot_publish";
    shape_.callers = shape_.hot ? 3 : 4;
    sampler_ = std::make_unique<UserSampler>(shape_.users, shape_.hot,
                                             Rng(kPopulationSeed));
    Rng model_rng(kPopulationSeed + 1);
    base_model_ = std::make_unique<nn::SequenceClassifier>(
        nn::make_one_layer_lstm(spec_.input_dim(), kHidden, kLocations, 0.0,
                                model_rng));
    for (std::size_t v = 0; v < kModelVariants; ++v) {
      variants_.push_back(nn::make_one_layer_lstm(
          spec_.input_dim(), kHidden, kLocations, 0.0, model_rng));
    }
    phase_s_[0] = 0.1 * options.seconds;
    phase_s_[1] = 0.2 * options.seconds;
    phase_s_[2] = 0.7 * options.seconds;
    if (shape_.hot) plan_publishes();
  }

  Outcome run() {
    Fleet fleet = set_up();
    router::Router& front = *fleet.front;
    front.set_instrumentation(options_.trace);

    closed_loop(front, /*phase=*/-1, kWarmupS, nullptr);  // warm-up

    router::Router::FleetMetrics before;
    if (options_.trace) before = front.fleet_metrics();

    std::thread publisher;
    if (shape_.hot) {
      publisher = std::thread([&] { publish_loop(front); });
    }
    const double measure_start = now_s();
    open_loop(front, 0, kLoRps);
    open_loop(front, 1, kHiRps);
    cpu_s_[0] = fleet_cpu_s(*fleet.engines);
    const double closed_s = closed_loop(front, 2, phase_s_[2], &log_);
    cpu_s_[1] = fleet_cpu_s(*fleet.engines);
    stop_publisher_.store(true);
    if (publisher.joinable()) publisher.join();
    const double measured_s = now_s() - measure_start;

    Outcome outcome;
    if (options_.trace) {
      const auto after = front.fleet_metrics();
      per_layer(outcome, before, after);
      overhead(outcome, front);
      write_spans();
    }
    const double rss_mb = engines_rss_mb(*fleet.engines);
    end_to_end(outcome, closed_s, measured_s, rss_mb);
    verify(outcome);
    return outcome;
  }

 private:
  /// Head-of-Zipf users get versions 2, 3, ... in a seeded order; every
  /// version the publisher may need is written to the store at set-up.
  void plan_publishes() {
    Rng rng = base_rng_.fork(3);
    const auto count = static_cast<std::size_t>(
        std::ceil(kPublishHz * (options_.seconds + 1.0)));
    std::vector<std::uint32_t> next_version(kHeadUsers, 2);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t rank = rng.below(kHeadUsers);
      publishes_.push_back({sampler_->head(rank), next_version[rank]++});
    }
    for (std::size_t rank = 0; rank < kHeadUsers; ++rank) {
      head_.push_back(sampler_->head(rank));
    }
  }

  const nn::SequenceClassifier& model_for(std::uint32_t version) const {
    return version <= 1 ? *base_model_
                        : variants_[version % kModelVariants];
  }

  /// Writes every user's model to the store, spawns the engines and deploys
  /// every user, several times. Each repetition gets fresh engines, but all
  /// write the same store paths: the first creates the 4096 user
  /// directories and files, later ones rewrite them. On a 4-vCPU VM the
  /// kernel time of creating that many new files moved between 0.3 s and
  /// 5 s within half an hour, for the same tree written by a plain script,
  /// so the first repetition is reported apart and setup_s is the median
  /// of the rest, which measure the stack's own set-up work.
  Fleet set_up() {
    Fleet fleet;
    const auto root = options_.work_dir / "fleet";
    std::filesystem::remove_all(root);
    for (std::size_t rep = 0; rep < shape_.setup_reps; ++rep) {
      const bool last = rep + 1 == shape_.setup_reps;
      write_back(options_.work_dir);
      const double start = now_s();
      std::array<double, 3> parts{};
      {
        store::ModelStore models(
            std::make_unique<store::FilesystemBackend>(root / "store"));
        for (std::uint32_t user = 0; user < shape_.users; ++user) {
          const double t0 = now_s();
          models.put({kScope, user, 1}, base_model_->clone());
          if (last) setup_.put_ms.push_back((now_s() - t0) * 1e3);
        }
        for (const auto& [user, version] : publishes_) {
          models.put({kScope, user, version}, model_for(version).clone());
        }
      }
      parts[0] = now_s() - start;
      router::LocalFleetConfig config;
      config.root = root;
      config.processes = 2;
      config.scope = kScope;
      config.engined_binary = options_.engined;
      config.extra_args = {"--max-batch", "32", "--max-delay-us", "2000",
                           "--shards", "16"};
      fleet.engines = std::make_unique<router::LocalFleet>(config);
      parts[1] = now_s() - start - parts[0];
      if (last) setup_.rss_before_mb = engines_rss_mb(*fleet.engines);
      fleet.front = std::make_unique<router::Router>();
      for (const auto& address : fleet.engines->addresses()) {
        (void)fleet.front->add_backend(address);
      }
      for (std::uint32_t user = 0; user < shape_.users; ++user) {
        const double t0 = now_s();
        fleet.front->deploy(user, 1, spec_, /*temperature=*/1.0);
        if (last) setup_.deploy_ms.push_back((now_s() - t0) * 1e3);
      }
      parts[2] = now_s() - start - parts[0] - parts[1];
      setup_.parts.push_back(parts);
      if (rep > 0) setup_.seconds.push_back(now_s() - start);
      if (last) {
        setup_.rss_after_mb = engines_rss_mb(*fleet.engines);
        for (const auto& entry :
             std::filesystem::recursive_directory_iterator(root / "store")) {
          if (!entry.is_regular_file()) continue;
          setup_.store_bytes += static_cast<double>(entry.file_size());
          ++setup_.store_artifacts;
        }
      } else {
        fleet.tear_down();
      }
    }
    return fleet;
  }

  std::uint64_t trace_id(int phase, std::uint64_t index) const {
    return mix64(options_.seed ^ mix64((static_cast<std::uint64_t>(phase + 1)
                                        << 48) ^ index)) | 1;
  }

  /// Serves one call and records it. `due_s` = `sent_s` in the closed loop.
  void serve_call(router::Router& front, std::vector<serve::PredictRequest>& call,
                  int phase, std::uint64_t index, double due_s, Log* log) {
    const bool stamp = options_.trace && front.instrumentation_enabled();
    const std::uint64_t id = stamp ? trace_id(phase, index) : 0;
    for (auto& request : call) request.trace_id = id;
    const double sent_s = now_s();
    const auto responses = front.serve(call);
    const double done_s = now_s();
    if (log == nullptr) return;

    std::size_t ok = 0;
    if (responses.size() != call.size()) {
      log->failures.push_back("serve returned " +
                              std::to_string(responses.size()) +
                              " responses for " + std::to_string(call.size()));
    }
    const double latency_ms = (done_s - due_s) * 1e3;
    for (std::size_t j = 0; j < std::min(responses.size(), call.size()); ++j) {
      const auto& response = responses[j];
      if (response.user_id != call[j].user_id ||
          (response.ok && response.locations.size() != kTopK)) {
        log->failures.push_back("malformed response for user " +
                                std::to_string(call[j].user_id));
      }
      if (response.ok) ++ok;
      log->latency_ms[phase].push_back(latency_ms);
      if (phase == 1 && response.ok && latency_ms <= kSloMs) {
        ++log->slo_hits_hi;
      }
      if (response.ok &&
          mix64(options_.seed ^ (index * kCallSize + j) ^
                (static_cast<std::uint64_t>(phase) << 56)) %
                  kSampleEvery ==
              0) {
        log->samples.push_back({call[j].user_id, call[j].window,
                                response.model_version, response.locations});
      }
      if (shape_.hot && response.ok &&
          std::find(head_.begin(), head_.end(), call[j].user_id) !=
              head_.end()) {
        log->observations.push_back(
            {call[j].user_id, sent_s, response.model_version});
      }
    }
    log->sent[phase] += call.size();
    log->ok[phase] += ok;
    log->spans.push_back({id, phase, due_s, sent_s, done_s, ok});
    counters().attempted.fetch_add(call.size());
    counters().failed.fetch_add(call.size() - ok);
  }

  /// Seeded Poisson call arrivals at `rps` requests/s; the callers take the
  /// next due call in order, so a stall makes later calls late.
  void open_loop(router::Router& front, int phase, double rps) {
    Rng rng = base_rng_.fork(10 + static_cast<std::uint64_t>(phase));
    const double calls_per_s = rps / static_cast<double>(kCallSize);
    std::vector<double> due;
    std::vector<std::vector<serve::PredictRequest>> calls;
    for (double t = 0.0;;) {
      t += -std::log(1.0 - rng.uniform()) / calls_per_s;
      if (t >= phase_s_[phase]) break;
      due.push_back(t);
      calls.push_back(sampler_->make_call(rng));
      stream_hash_ = mix64(stream_hash_ ^ static_cast<std::uint64_t>(t * 1e9));
      for (const auto& request : calls.back()) {
        stream_hash_ = mix64(stream_hash_ ^ window_key(request.user_id,
                                                       request.window));
      }
    }
    std::atomic<std::size_t> next{0};
    const double start = now_s() + 0.005;
    std::vector<Log> logs(shape_.callers);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < shape_.callers; ++c) {
      threads.emplace_back([&, c] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= calls.size()) return;
          const double due_s = start + due[i];
          const double wait = due_s - now_s();
          if (wait > 0) {
            std::this_thread::sleep_for(std::chrono::duration<double>(wait));
          }
          logs[c].lag_ms.push_back((now_s() - due_s) * 1e3);
          serve_call(front, calls[i], phase, i, due_s, &logs[c]);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    for (auto& log : logs) log_.absorb(std::move(log));
  }

  /// `callers` threads, each with one call in flight, for `seconds`.
  /// Returns the phase's wall time. phase -1 is the unrecorded warm-up.
  double closed_loop(router::Router& front, int phase, double seconds,
                     Log* into) {
    const double start = now_s();
    const double end = start + seconds;
    std::vector<Log> logs(shape_.callers);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < shape_.callers; ++c) {
      threads.emplace_back([&, c] {
        Rng rng = base_rng_.fork(100 + 16 * static_cast<std::uint64_t>(
                                               phase + 1) + c);
        for (std::uint64_t n = 0; now_s() < end; ++n) {
          auto call = sampler_->make_call(rng);
          serve_call(front, call, phase, (c << 40) | n, now_s(),
                     into == nullptr ? nullptr : &logs[c]);
        }
      });
    }
    for (auto& thread : threads) thread.join();
    const double elapsed = now_s() - start;
    if (into != nullptr) {
      for (auto& log : logs) into->absorb(std::move(log));
    }
    return elapsed;
  }

  void publish_loop(router::Router& front) {
    const double start = now_s();
    for (std::size_t i = 0; i < publishes_.size(); ++i) {
      const double target = start + static_cast<double>(i) / kPublishHz;
      while (now_s() < target) {
        if (stop_publisher_.load()) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      if (stop_publisher_.load()) return;
      const auto [user, version] = publishes_[i];
      const double t0 = now_s();
      try {
        front.publish(user, version);
      } catch (const std::exception& error) {
        publish_failures_.push_back(error.what());
        continue;
      }
      const double t1 = now_s();
      publish_ms_.push_back((t1 - t0) * 1e3);
      published_.push_back({user, version, t1});
    }
  }

  void end_to_end(Outcome& outcome, double closed_s, double measured_s,
                  double rss_mb) {
    Report& r = outcome.report;
    r.set("setup_s", median(setup_.seconds), "s");
    r.set("throughput_rps", static_cast<double>(log_.ok[2]) / closed_s, "1/s");
    double sum_ms = 0.0;
    for (double ms : log_.latency_ms[2]) sum_ms += ms;
    r.set("lat_mean_ms",
          log_.latency_ms[2].empty()
              ? 0.0
              : sum_ms / static_cast<double>(log_.latency_ms[2].size()),
          "ms");
    r.set("lat_p99_ms", percentile(log_.latency_ms[2], 99), "ms");
    r.set("rss_mb", rss_mb, "MB");

    // The per-workload views of the same run.
    r.set("lat_p50_ms.lo", percentile(log_.latency_ms[0], 50), "ms");
    r.set("lat_p99_ms.lo", percentile(log_.latency_ms[0], 99), "ms");
    r.set("lat_p50_ms.hi", percentile(log_.latency_ms[1], 50), "ms");
    r.set("lat_p99_ms.hi", percentile(log_.latency_ms[1], 99), "ms");
    const double sent = static_cast<double>(log_.sent[0] + log_.sent[1] +
                                            log_.sent[2]);
    const double ok = static_cast<double>(log_.ok[0] + log_.ok[1] + log_.ok[2]);
    r.set("slo_attain.hi",
          log_.sent[1] == 0 ? 0.0
                            : static_cast<double>(log_.slo_hits_hi) /
                                  static_cast<double>(log_.sent[1]),
          "share");
    r.set("fail_ratio", sent == 0 ? 0.0 : (sent - ok) / sent, "share");
    r.set("engine_rss_mb", rss_mb, "MB");
    r.set("publish_p99_ms", percentile(publish_ms_, 99), "ms");
    r.set("gen.lag_p99_ms", percentile(log_.lag_ms, 99), "ms");
    r.set("gen.sent", sent, "count");
    r.set("gen.completed", ok, "count");
    r.set("store.put_ms.p50", median(setup_.put_ms), "ms");
    r.set("store.bytes_per_user",
          setup_.store_artifacts == 0
              ? 0.0
              : setup_.store_bytes /
                    static_cast<double>(setup_.store_artifacts),
          "B");
    r.set("router.deploy_ms.p50", median(setup_.deploy_ms), "ms");
    r.set("router.publish_ms.p50", percentile(publish_ms_, 50), "ms");
    r.set("router.publish_ms.p99", percentile(publish_ms_, 99), "ms");
    r.set("cpu.us_per_req",
          1e6 * (cpu_s_[1] - cpu_s_[0]) / static_cast<double>(log_.sent[2]),
          "us");
    r.set("serve.rss_kb_per_user",
          (setup_.rss_after_mb - setup_.rss_before_mb) * 1024.0 /
              static_cast<double>(shape_.users),
          "KB");

    std::ostringstream head;
    head << options_.workload << " seed " << options_.seed << ": "
         << shape_.users << " users, 2 engines, " << kCallSize
         << " requests/call, lo " << kLoRps << " req/s for " << phase_s_[0]
         << " s (" << log_.sent[0] << " requests), hi " << kHiRps
         << " req/s for " << phase_s_[1] << " s (" << log_.sent[1]
         << " requests), closed loop " << shape_.callers << " callers for "
         << closed_s << " s (" << log_.sent[2] << " requests), "
         << published_.size() << " publishes, measured " << measured_s
         << " s, set-up " << setup_.parts.size()
         << "x (first lays the store out, not in setup_s):";
    for (const auto& [put, spawn, deploy] : setup_.parts) {
      head << " " << put + spawn + deploy << " s (put " << put << ", spawn "
           << spawn << ", deploy " << deploy << ")";
    }
    outcome.text.push_back(head.str());
    char fingerprint[64];
    std::snprintf(fingerprint, sizeof(fingerprint),
                  "request stream fingerprint %016llx",
                  static_cast<unsigned long long>(stream_hash_));
    outcome.text.push_back(fingerprint);
    if (!options_.trace) {
      outcome.text.push_back("end-to-end (instrumentation off):");
      append_metric_lines(
          outcome, {"setup_s", "throughput_rps", "lat_mean_ms", "lat_p99_ms",
                    "rss_mb", "lat_p50_ms.lo", "lat_p99_ms.lo", "lat_p50_ms.hi",
                    "lat_p99_ms.hi", "slo_attain.hi", "fail_ratio",
                    "engine_rss_mb", "publish_p99_ms"});
    }
  }

  /// A histogram of an interval state, or an empty one if it is absent.
  static obs::HistogramState histogram_in(const obs::RegistryState& state,
                                          const std::string& name) {
    for (const auto& [key, histogram] : state.histograms) {
      if (key == name) return histogram;
    }
    return {};
  }

  static double counter_in(const obs::RegistryState& state,
                           const std::string& name) {
    for (const auto& [key, count] : state.counters) {
      if (key == name) return static_cast<double>(count);
    }
    return 0.0;
  }

  static double mean_of(const obs::HistogramState& state) {
    return state.count == 0 ? 0.0
                            : state.sum / static_cast<double>(state.count);
  }

  void per_layer(Outcome& outcome, const router::Router::FleetMetrics& before,
                 const router::Router::FleetMetrics& after) {
    Report& r = outcome.report;
    const obs::RegistryState measured =
        obs::delta_state(after.registry, before.registry);
    const auto stage = [&](obs::Stage s) {
      return histogram_in(measured, obs::stage_metric_name(s));
    };
    const auto pct = [](const obs::HistogramState& s, double q) {
      return pelican::obs::Histogram::percentile_of(s, q);
    };
    using obs::Stage;
    const auto wire = stage(Stage::kWireSerialize);
    const auto fanout = stage(Stage::kRouterFanout);
    const auto admission = stage(Stage::kAdmission);
    const auto queue = stage(Stage::kQueueWait);
    const auto assembly = stage(Stage::kBatchAssembly);
    const auto encode = stage(Stage::kEncode);
    const auto forward = stage(Stage::kForward);
    const auto rank = stage(Stage::kRankTopK);

    std::vector<double> serve_ms;
    for (const auto& span : log_.spans) {
      serve_ms.push_back((span.done_s - span.sent_s) * 1e3);
    }
    const double calls = static_cast<double>(log_.spans.size());
    const double engine_ms = mean_of(admission) + mean_of(queue) +
                             mean_of(assembly) + mean_of(encode) +
                             mean_of(forward) + mean_of(rank);
    double serve_mean = 0.0;
    for (double ms : serve_ms) serve_mean += ms;
    serve_mean = serve_ms.empty() ? 0.0 : serve_mean / calls;
    const double net = mean_of(fanout) - engine_ms;
    const double residual = serve_mean - mean_of(wire) - mean_of(fanout);

    r.set("router.serve_ms.p50", percentile(serve_ms, 50), "ms");
    r.set("router.serve_ms.p99", percentile(serve_ms, 99), "ms");
    r.set("router.wire_serialize_ms.p50", pct(wire, 50), "ms");
    r.set("router.fanout_ms.p50", pct(fanout, 50), "ms");
    r.set("router.fanout_ms.p99", pct(fanout, 99), "ms");
    r.set("router.net_ms.mean", net, "ms");
    const auto per_1k = [&](const char* counter) {
      return calls == 0 ? 0.0 : 1000.0 * counter_in(measured, counter) / calls;
    };
    const double hedges = counter_in(measured, "router_hedges_total");
    const double wins = counter_in(measured, "router_hedge_wins_total");
    r.set("router.hedges_per_1k", per_1k("router_hedges_total"), "count");
    r.set("router.hedge_wins_per_1k", per_1k("router_hedge_wins_total"),
          "count");
    r.set("router.hedge_win_ratio", hedges == 0 ? 0.0 : wins / hedges,
          "share");
    r.set("router.request_timeouts_per_1k",
          per_1k("router_request_timeouts_total"), "count");
    r.set("router.retry_rounds_per_1k", per_1k("router_retry_rounds_total"),
          "count");
    r.set("router.pool_reconnects_per_1k",
          per_1k("router_pool_reconnects_total"), "count");
    r.set("router.quarantines_per_1k", per_1k("router_quarantines_total"),
          "count");

    // Wire: encode a slice of the generated stream outside the timed run.
    {
      Rng rng = base_rng_.fork(7);
      std::vector<std::vector<serve::PredictRequest>> calls_for_wire;
      for (int i = 0; i < 512; ++i) {
        calls_for_wire.push_back(sampler_->make_call(rng));
        for (auto& request : calls_for_wire.back()) request.trace_id = 1;
      }
      std::size_t bytes = 0;
      const double t0 = now_s();
      for (const auto& call : calls_for_wire) {
        bytes += router::encode_predict_batch(call).size();
      }
      const double elapsed = now_s() - t0;
      r.set("wire.frame_bytes_per_req",
            static_cast<double>(bytes) / (512.0 * kCallSize), "B");
      r.set("wire.encode_us", elapsed * 1e6 / 512.0, "us");
    }

    std::uint64_t batches = 0;
    std::uint64_t rows = 0;
    double shed = 0;
    double rejected = 0;
    double peak = 0;
    for (const auto& [address, report] : after.engines) {
      batches += report.stats.batches;
      rows += report.stats.batch_rows;
      shed += static_cast<double>(report.stats.shed);
      rejected += static_cast<double>(report.stats.rejected);
      peak = std::max(peak, static_cast<double>(report.stats.peak_queue_depth));
    }
    for (const auto& [address, report] : before.engines) {
      batches -= report.stats.batches;
      rows -= report.stats.batch_rows;
      shed -= static_cast<double>(report.stats.shed);
      rejected -= static_cast<double>(report.stats.rejected);
    }
    const double mean_batch =
        batches == 0
            ? 0.0
            : static_cast<double>(rows) / static_cast<double>(batches);
    r.set("serve.admission_ms", mean_of(admission), "ms");
    r.set("serve.queue_wait_ms.p50", pct(queue, 50), "ms");
    r.set("serve.queue_wait_ms.p99", pct(queue, 99), "ms");
    r.set("serve.batch_assembly_ms", mean_of(assembly), "ms");
    r.set("serve.mean_batch", mean_batch, "rows");
    r.set("serve.shed", shed, "count");
    r.set("serve.rejected", rejected, "count");
    r.set("serve.peak_queue_depth", peak, "count");
    r.set("core.encode_ms", mean_of(encode), "ms");
    r.set("nn.forward_ms", mean_of(forward), "ms");
    r.set("core.rank_topk_ms", mean_of(rank), "ms");
    r.set("waterfall.residual_ms", residual, "ms");

    outcome.text.push_back(
        "waterfall (instrumented run; mean ms per span, engine stages per "
        "request or per forward chunk):");
    const std::pair<const char*, double> rows_out[] = {
        {"router.serve (bench span)", serve_mean},
        {"  wire_serialize", mean_of(wire)},
        {"  router_fanout", mean_of(fanout)},
        {"    net (fanout - engine)", net},
        {"    admission", mean_of(admission)},
        {"    queue_wait", mean_of(queue)},
        {"    batch_assembly", mean_of(assembly)},
        {"    encode", mean_of(encode)},
        {"    forward", mean_of(forward)},
        {"    rank_topk", mean_of(rank)},
        {"  residual (serve - wire - fanout)", residual},
    };
    for (const auto& [name, value] : rows_out) {
      outcome.text.push_back(metric_line(name, value, "ms"));
    }
    outcome.text.push_back("  samples: " + std::to_string(serve_ms.size()) +
                           " calls, " + std::to_string(fanout.count) +
                           " fan-outs, " + std::to_string(forward.count) +
                           " forwards, mean batch " +
                           std::to_string(mean_batch));
  }

  /// Interleaved A/B closed-loop slices with instrumentation off and on;
  /// overhead = (off - on) / off of the median slice throughput. A 2 s
  /// router request timeout stalls a whole slice, so the medians, not the
  /// slices, are compared.
  void overhead(Outcome& outcome, router::Router& front) {
    constexpr double kSliceS = 1.0;
    constexpr int kPairs = 4;
    std::vector<double> off;
    std::vector<double> on;
    for (int pair = 0; pair < kPairs; ++pair) {
      for (int side = 0; side < 2; ++side) {
        const bool instrumented = (side == 1) != (pair % 2 == 1);
        front.set_instrumentation(instrumented);
        Log slice;
        const double seconds = closed_loop(front, 2, kSliceS, &slice);
        const double rps = static_cast<double>(slice.ok[2]) / seconds;
        (instrumented ? on : off).push_back(rps);
      }
    }
    front.set_instrumentation(true);
    const double base = median(off);
    const double pct = base == 0.0 ? 0.0 : 100.0 * (base - median(on)) / base;
    outcome.report.set("trace.overhead_pct", pct, "%");
    outcome.text.push_back("tracing overhead (closed loop, " +
                           std::to_string(kPairs) +
                           " interleaved pairs of 1 s): off " +
                           std::to_string(base) + " req/s, on " +
                           std::to_string(median(on)) + " req/s, overhead " +
                           std::to_string(pct) + " %");
  }

  void write_spans() const {
    if (options_.spans_out.empty()) return;
    std::filesystem::create_directories(options_.spans_out.parent_path());
    std::ofstream out(options_.spans_out, std::ios::trunc);
    out.precision(12);
    for (const auto& span : log_.spans) {
      out << "{\"trace_id\": " << span.trace_id << ", \"span\": \"router.serve\""
          << ", \"phase\": \"" << kPhaseNames[span.phase]
          << "\", \"due_s\": " << span.due_s << ", \"start_s\": " << span.sent_s
          << ", \"end_s\": " << span.done_s << ", \"requests\": " << kCallSize
          << ", \"ok\": " << span.ok << "}\n";
    }
  }

  void verify(Outcome& outcome) {
    for (const auto& failure : log_.failures) {
      outcome.failures.push_back(failure);
    }
    for (const auto& failure : publish_failures_) {
      outcome.failures.push_back("publish failed: " + failure);
    }
    if (log_.samples.empty()) {
      outcome.failures.push_back("no responses sampled for the reference check");
    }

    // Sampled responses must equal an in-process deployment of the same
    // stored version, id for id.
    std::map<std::uint32_t, std::unique_ptr<core::DeployedModel>> references;
    std::size_t mismatches = 0;
    for (std::size_t s = 0; s < log_.samples.size(); ++s) {
      const Sample& sample = log_.samples[s];
      auto& reference = references[sample.version <= 1
                                       ? 1
                                       : 2 + sample.version % kModelVariants];
      if (!reference) {
        reference = std::make_unique<core::DeployedModel>(
            model_for(sample.version).clone(), spec_, core::PrivacyLayer(1.0),
            core::DeploymentSite::kInCloud, sample.version);
      }
      auto expected = reference->predict_top_k(sample.window, kTopK);
      if (options_.perturb == "flip_id" && s == 0) expected[0] ^= 1;
      if (expected != sample.locations) ++mismatches;
    }
    if (mismatches > 0) {
      outcome.failures.push_back(
          std::to_string(mismatches) + " of " +
          std::to_string(log_.samples.size()) +
          " sampled responses differ from the in-process reference");
    }

    // After publish(u, v) returns, every later response for u carries
    // model_version >= v.
    if (shape_.hot) {
      auto& observations = log_.observations;
      if (options_.perturb == "stale_version") {
        for (const auto& record : published_) {
          const auto it = std::find_if(
              observations.begin(), observations.end(), [&](const auto& o) {
                return o.user == record.user && o.sent_s > record.returned_s;
              });
          if (it != observations.end()) {
            it->version = record.version - 1;
            break;
          }
        }
      }
      std::unordered_map<std::uint32_t, std::vector<const Observation*>> by_user;
      for (const auto& o : observations) by_user[o.user].push_back(&o);
      std::size_t stale = 0;
      for (const auto& record : published_) {
        for (const Observation* o : by_user[record.user]) {
          if (o->sent_s > record.returned_s && o->version < record.version) {
            ++stale;
          }
        }
      }
      if (stale > 0) {
        outcome.failures.push_back(std::to_string(stale) +
                                   " responses carried a version older than "
                                   "one already published for their user");
      }
      if (published_.empty()) {
        outcome.failures.push_back("no publish completed");
      }
    }
    outcome.text.push_back(
        "checks: " + std::to_string(log_.samples.size()) +
        " sampled responses vs in-process reference" +
        (shape_.hot ? ", " + std::to_string(log_.observations.size()) +
                          " head-user responses vs " +
                          std::to_string(published_.size()) + " publishes"
                    : std::string{}));
  }

  const Options& options_;
  mobility::EncodingSpec spec_;
  Rng base_rng_;
  Shape shape_;
  double phase_s_[3] = {0, 0, 0};
  /// fleet_cpu_s before and after the closed loop.
  double cpu_s_[2] = {0, 0};
  std::unique_ptr<UserSampler> sampler_;
  std::unique_ptr<nn::SequenceClassifier> base_model_;
  std::vector<nn::SequenceClassifier> variants_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> publishes_;
  std::vector<std::uint32_t> head_;
  SetupStats setup_;
  Log log_;
  /// Fingerprint of the generated open-loop request stream.
  std::uint64_t stream_hash_ = 0;

  std::atomic<bool> stop_publisher_{false};
  // Written by the publisher thread only, read after it joins.
  std::vector<double> publish_ms_;
  std::vector<PublishRecord> published_;
  std::vector<std::string> publish_failures_;
};

}  // namespace

Outcome run_fleet(const Options& options) {
  FleetBench bench(options);
  return bench.run();
}

}  // namespace perfbench
