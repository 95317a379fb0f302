// privacy_audit: the paper's attack pipeline, which bypasses the router,
// the serving engine and the model store.
//
// Set-up builds the bench-harness world at tiny scale (world, general model,
// personalized users) with a fresh model cache, so every repetition trains.
// The measured phase first personalizes every user with TL feature
// extraction (the paper default), deploys the result, and runs brute-force
// inversion (adversary A1, true prior) once against each deployment; it
// then repeats time-based inversion over every user's training windows
// until the run's time is spent. The end-to-end figures come from those
// time-based passes, which take most of the run. Model queries go through a
// timing decorator, so the adversary's query latency is measured per call.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <sstream>

#include "attack/enumeration.hpp"
#include "attack/inversion.hpp"
#include "attack/prior.hpp"
#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/service.hpp"
#include "harness/pipeline.hpp"
#include "models/personalize.hpp"
#include "models/window_dataset.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

namespace attack = pelican::attack;
namespace bench = pelican::bench;
namespace core = pelican::core;
namespace mobility = pelican::mobility;
namespace models = pelican::models;
namespace nn = pelican::nn;

/// Timings of every BlackBoxModel::query, shared by a model and its
/// replicas (scoring workers query concurrently).
struct QueryLog {
  pelican::Mutex mutex;
  std::vector<double> ms PELICAN_GUARDED_BY(mutex);
  std::uint64_t rows PELICAN_GUARDED_BY(mutex) = 0;

  void add(double elapsed_ms, std::size_t count) {
    const pelican::MutexLock lock(mutex);
    ms.push_back(elapsed_ms);
    rows += count;
  }
};

/// Times each query of the wrapped model. Replicates by replicating the
/// wrapped model, so parallel scoring keeps its per-worker replicas.
class TimingBlackBox final : public attack::BlackBoxModel {
 public:
  TimingBlackBox(attack::BlackBoxModel& inner, std::shared_ptr<QueryLog> log,
                 std::unique_ptr<attack::BlackBoxModel> owned = nullptr)
      : inner_(&inner), owned_(std::move(owned)), log_(std::move(log)) {}

  [[nodiscard]] nn::Matrix query(const nn::Sequence& input) override {
    return timed(input);
  }
  [[nodiscard]] nn::Matrix query(const nn::SparseSequence& input) override {
    return timed(input);
  }
  [[nodiscard]] std::unique_ptr<attack::BlackBoxModel> replicate() override {
    auto replica = inner_->replicate();
    if (!replica) return nullptr;
    attack::BlackBoxModel& target = *replica;
    return std::make_unique<TimingBlackBox>(target, log_, std::move(replica));
  }
  [[nodiscard]] std::size_t num_classes() const override {
    return inner_->num_classes();
  }
  [[nodiscard]] const mobility::EncodingSpec& spec() const override {
    return inner_->spec();
  }

 private:
  template <typename Input>
  nn::Matrix timed(const Input& input) {
    const double t0 = now_s();
    nn::Matrix out = inner_->query(input);
    log_->add((now_s() - t0) * 1e3, input.empty() ? 0 : input.front().rows());
    return out;
  }

  attack::BlackBoxModel* inner_;
  std::unique_ptr<attack::BlackBoxModel> owned_;  // set on replicas only
  std::shared_ptr<QueryLog> log_;
};

struct MethodTotals {
  double seconds = 0.0;
  std::size_t windows = 0;
};

double sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double x : values) total += x;
  return total;
}

double mean(const std::vector<double>& values) {
  return values.empty() ? 0.0
                        : sum(values) / static_cast<double>(values.size());
}

}  // namespace

Outcome run_audit(const Options& options) {
  const std::size_t bf_windows = 1;
  // 0: every training window, so the attacked set (not just its order) is the
  // same for every seed and so is the work.
  const std::size_t tb_windows = options.small ? 4 : 0;
  // One set-up trains the tiny world in about 0.2 s; the median of many
  // keeps one slow repetition from moving the figure.
  const std::size_t setup_reps = options.small ? 2 : 15;
  // Top-3 leakage is compared between time-based passes, so a run makes at
  // least this many even past its time.
  constexpr std::size_t kMinTimedPasses = 2;

  ::setenv("PELICAN_BENCH_SCALE", "tiny", 1);
  const bench::ScaleConfig scale = bench::ScaleConfig::from_env();
  // The world (campus, users, trained models) is the harness's default for
  // every seed, so every seed costs the same work; the seed picks which of
  // each user's training windows are attacked.

  Outcome outcome;
  Report& r = outcome.report;

  std::vector<double> setup_s;
  std::unique_ptr<bench::Pipeline> pipeline;
  for (std::size_t rep = 0; rep < setup_reps; ++rep) {
    pipeline.reset();
    const auto cache = options.work_dir / ("audit-cache" + std::to_string(rep));
    std::filesystem::remove_all(cache);
    ::setenv("PELICAN_CACHE_DIR", cache.c_str(), 1);
    const double t0 = now_s();
    pipeline = std::make_unique<bench::Pipeline>(
        scale, mobility::SpatialLevel::kBuilding);
    setup_s.push_back(now_s() - t0);
    if (!pipeline->trained_fresh()) {
      outcome.failures.push_back("set-up loaded a cached model");
    }
  }

  const auto& spec = pipeline->spec();
  const auto personalization = pipeline->personalization_config();
  auto& users = pipeline->users();
  // Brute-force queries score 1024-row batches across the pool; time-based
  // queries are the small ones of the paper's default attack.
  const auto brute_log = std::make_shared<QueryLog>();
  pelican::Rng pick(options.seed);
  std::vector<std::vector<mobility::Window>> targets;
  for (const auto& user : users) {
    std::vector<mobility::Window> windows = user.train_windows;
    for (std::size_t i = windows.size(); i > 1; --i) {
      std::swap(windows[i - 1], windows[pick.below(i)]);
    }
    targets.push_back(std::move(windows));
  }
  std::uint64_t stream_hash = 0;  // fingerprint of the attacked windows
  for (const auto& windows : targets) {
    for (std::size_t w = 0; w < windows.size(); ++w) {
      for (const auto& step : windows[w].steps) {
        stream_hash = stream_hash * 1000003ULL +
                      (std::uint64_t{step.entry_bin} << 24 |
                       std::uint64_t{step.duration_bin} << 16 | step.location);
      }
    }
  }

  const auto attack_config = [&](attack::AttackMethod method,
                                 std::size_t max_windows) {
    attack::InversionConfig config;
    config.adversary = attack::Adversary::kA1;
    config.method = method;
    config.max_windows = max_windows;
    return config;
  };

  // Personalize and deploy every user, then attack each deployment once by
  // brute force.
  const double deadline = now_s() + options.seconds;
  std::vector<double> personalize_s;  // per user
  std::vector<std::unique_ptr<core::DeployedModel>> deployments;
  std::vector<std::vector<double>> priors;
  MethodTotals brute;
  double leak_bf = 0.0;
  std::size_t queries_per_pass = 0;
  double train_windows = 0.0;
  for (std::size_t u = 0; u < users.size(); ++u) {
    auto& user = users[u];
    const models::WindowDataset data(user.train_windows, spec);
    const double t0 = now_s();
    auto personal = models::personalize(pipeline->general(), data,
                                        personalization);
    personalize_s.push_back(now_s() - t0);
    train_windows += static_cast<double>(user.train_windows.size());
    deployments.push_back(std::make_unique<core::DeployedModel>(
        std::move(personal.model), spec, core::PrivacyLayer(1.0),
        core::DeploymentSite::kOnDevice));
    priors.push_back(attack::make_prior(attack::PriorKind::kTrue,
                                        user.train_windows, *deployments[u],
                                        user.test_windows));
    TimingBlackBox box(*deployments[u], brute_log);
    const double a0 = now_s();
    const auto result = attack::run_inversion(
        box, targets[u], user.test_windows, priors[u],
        attack_config(attack::AttackMethod::kBruteForce, bf_windows));
    brute.seconds += now_s() - a0;
    brute.windows += result.windows_attacked;
    queries_per_pass += result.model_queries;
    leak_bf += result.at_k(3) / static_cast<double>(users.size());
    counters().attempted.fetch_add(result.windows_attacked);
  }

  // Time-based passes over every user until the run's time is spent. Each
  // pass attacks the same windows of the same deployments, so its top-3
  // leakage must equal the first pass's.
  std::vector<double> pass_rate;     // windows per second, per pass
  std::vector<double> pass_seconds;
  std::vector<double> pass_mean_ms;  // mean query latency, per pass
  std::vector<double> pass_p99_ms;   // 99th percentile, per pass
  std::vector<double> first_leak;    // top-3 per user, first pass
  std::size_t timed_queries = 0;
  std::size_t passes = 0;
  std::size_t leak_mismatches = 0;
  while (passes < kMinTimedPasses || now_s() < deadline) {
    std::vector<double> leak;
    MethodTotals pass;
    const auto pass_log = std::make_shared<QueryLog>();
    for (std::size_t u = 0; u < users.size(); ++u) {
      TimingBlackBox box(*deployments[u], pass_log);
      const double a0 = now_s();
      const auto result = attack::run_inversion(
          box, targets[u], users[u].test_windows, priors[u],
          attack_config(attack::AttackMethod::kTimeBased, tb_windows));
      pass.seconds += now_s() - a0;
      pass.windows += result.windows_attacked;
      if (passes == 0) queries_per_pass += result.model_queries;
      leak.push_back(result.at_k(3));
      // Self-test fault: later passes count one more hit for the first user.
      if (options.perturb == "leak" && passes > 0 && u == 0) {
        leak.back() += 1.0 / static_cast<double>(result.windows_attacked);
      }
      counters().attempted.fetch_add(result.windows_attacked);
    }
    pass_rate.push_back(static_cast<double>(pass.windows) / pass.seconds);
    pass_seconds.push_back(pass.seconds);
    {
      const pelican::MutexLock lock(pass_log->mutex);
      pass_mean_ms.push_back(mean(pass_log->ms));
      pass_p99_ms.push_back(percentile(pass_log->ms, 99));
      timed_queries += pass_log->ms.size();
    }
    if (passes == 0) {
      first_leak = leak;
    } else if (leak != first_leak) {
      ++leak_mismatches;
    }
    ++passes;
  }
  if (leak_mismatches > 0) {
    outcome.failures.push_back(
        "top-3 leakage of " + std::to_string(leak_mismatches) + " of " +
        std::to_string(passes - 1) +
        " later time-based passes differs from the first pass");
  }

  std::vector<double> brute_ms;
  std::uint64_t brute_rows = 0;
  {
    const pelican::MutexLock lock(brute_log->mutex);
    brute_ms = brute_log->ms;
    brute_rows = brute_log->rows;
  }

  // Layer calls on one seeded brute-force window per user: enumeration, and
  // parallel scoring checked against the serial reference on a seeded slice
  // of kCheckRows candidates (the serial path is the slow one). Scoring a
  // whole window is timed on the first user's.
  constexpr std::size_t kCheckRows = 8 * 1024;
  std::vector<double> enumerate_ms;
  double score_ms = 0.0;
  double candidates = 0.0;
  std::size_t mismatched = 0;
  for (std::size_t u = 0; u < users.size(); ++u) {
    core::DeployedModel& deployment = *deployments[u];
    const auto& prior = priors[u];
    const auto& window = targets[u].back();
    std::vector<std::uint16_t> guesses(deployment.num_classes());
    for (std::size_t i = 0; i < guesses.size(); ++i) {
      guesses[i] = static_cast<std::uint16_t>(i);
    }
    const double e0 = now_s();
    const auto set = attack::enumerate_candidates(
        attack::AttackMethod::kBruteForce, attack::Adversary::kA1, window,
        guesses, prior);
    enumerate_ms.push_back((now_s() - e0) * 1e3);
    candidates += static_cast<double>(set.size());
    const auto replicas = attack::make_scoring_replicas(
        deployment, pelican::ThreadPool::global().size());
    if (u == 0) {
      const double s0 = now_s();
      (void)attack::score_candidates_parallel(
          deployment, set, window.next_location, prior, 1024, replicas);
      score_ms = (now_s() - s0) * 1e3;
    }
    const std::size_t rows = std::min(kCheckRows, set.size());
    const auto slice = std::span<const attack::Candidate>(set).subspan(
        pick.below(set.size() - rows + 1), rows);
    const auto parallel = attack::score_candidates_parallel(
        deployment, slice, window.next_location, prior, 1024, replicas);
    auto serial = attack::score_candidates(deployment, slice,
                                           window.next_location, prior, 1024);
    if (options.perturb == "serial_score" && u == 0) serial[0] += 1.0;
    if (serial != parallel) ++mismatched;
  }
  if (mismatched > 0) {
    outcome.failures.push_back(
        std::to_string(mismatched) +
        " windows scored differently by score_candidates_parallel and the "
        "serial score_candidates");
  }

  const double n_users = static_cast<double>(users.size());
  const double peak_mb = proc_status_mb(::getpid(), "VmHWM");

  r.set("setup_s", median(setup_s), "s");
  // The end-to-end figures come from the time-based passes, as medians
  // over passes, so one slow pass does not move them.
  const double timed_rate = median(pass_rate);
  r.set("throughput_rps", timed_rate, "1/s");
  r.set("lat_mean_ms", median(pass_mean_ms), "ms");
  r.set("lat_p99_ms", median(pass_p99_ms), "ms");
  r.set("rss_mb", peak_mb, "MB");

  r.set("personalize_s_per_user", median(personalize_s), "s");
  r.set("bruteforce_windows_per_s",
        static_cast<double>(brute.windows) / brute.seconds, "1/s");
  r.set("timebased_windows_per_s", timed_rate, "1/s");
  r.set("peak_rss_mb", peak_mb, "MB");
  r.set("attack.enumerate_ms_per_window", mean(enumerate_ms), "ms");
  r.set("attack.candidates_per_window", candidates / n_users, "count");
  r.set("attack.score_ms_per_window", score_ms, "ms");
  r.set("attack.queries", static_cast<double>(queries_per_pass), "count");
  r.set("attack.candidate_bytes",
        candidates / n_users * static_cast<double>(sizeof(attack::Candidate)),
        "B");
  double leak_tb = 0.0;
  for (double leak : first_leak) leak_tb += leak / n_users;
  r.set("attack.leak_top3.bruteforce", leak_bf, "share");
  r.set("attack.leak_top3.timebased", leak_tb, "share");
  r.set("nn.query_ms_per_batch", mean(brute_ms), "ms");
  r.set("nn.rows_per_query",
        brute_ms.empty() ? 0.0
                         : static_cast<double>(brute_rows) /
                               static_cast<double>(brute_ms.size()),
        "rows");
  r.set("models.personalize_s", sum(personalize_s), "s");
  r.set("models.train_windows_per_user", train_windows / n_users, "count");

  std::ostringstream head;
  head << "privacy_audit seed " << options.seed << ": tiny scale, "
       << users.size() << " users; TL-FE personalize + A1 brute force on "
       << bf_windows << " training window per user in " << brute.seconds
       << " s, then " << passes << " passes of time-based on "
       << (tb_windows == 0 ? "all" : std::to_string(tb_windows))
       << " training windows per user in " << sum(pass_seconds) << " s; "
       << brute_ms.size() << " brute-force and " << timed_queries
       << " time-based model queries, set-up " << setup_s.size() << "x:";
  for (double seconds : setup_s) head << " " << seconds;
  head << " s";
  outcome.text.push_back(head.str());
  std::ostringstream tails;
  tails << "time-based query p99 per pass (ms):";
  for (double ms : pass_p99_ms) tails << " " << ms;
  outcome.text.push_back(tails.str());
  char fingerprint[64];
  std::snprintf(fingerprint, sizeof(fingerprint),
                "request stream fingerprint %016llx",
                static_cast<unsigned long long>(stream_hash));
  outcome.text.push_back(fingerprint);
  append_metric_lines(
      outcome, {"setup_s", "throughput_rps", "lat_mean_ms", "lat_p99_ms",
                "rss_mb", "personalize_s_per_user", "bruteforce_windows_per_s",
                "timebased_windows_per_s", "attack.leak_top3.bruteforce",
                "attack.leak_top3.timebased"});
  return outcome;
}

}  // namespace perfbench
