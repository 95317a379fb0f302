// Layer sharing in the serving engine: the registry keeps one resident copy
// of each distinct layer, and the scheduler batches rows of different users
// through the layers they share — without changing any answer.
#include <gtest/gtest.h>

#include <memory>
#include <thread>
#include <vector>

#include "core/service.hpp"
#include "models/personalize.hpp"
#include "models/window_dataset.hpp"
#include "nn/model.hpp"
#include "serve/registry.hpp"
#include "serve/scheduler.hpp"
#include "serve_support.hpp"

namespace pelican::serve {
namespace {

using serve_testing::kHidden;
using serve_testing::kLocations;
using serve_testing::random_window;
using serve_testing::tiny_spec;

nn::SequenceClassifier general_model() {
  Rng rng(404);
  return nn::make_two_layer_lstm(tiny_spec().input_dim(), kHidden, kLocations,
                                 /*dropout_rate=*/0.1, rng);
}

/// One user's model per personalization flavor, each trained for an epoch
/// on its own windows: kReuse, TL-FE and TL-FT keep the general model's
/// first LSTM bit-identical (TL-FE the whole general stack); the fresh LSTM
/// shares nothing; the int8 model is the quantized general model.
std::vector<nn::SequenceClassifier> user_models(std::size_t users) {
  const nn::SequenceClassifier general = general_model();
  std::vector<nn::SequenceClassifier> out;
  for (std::size_t u = 0; u < users; ++u) {
    Rng rng(1000 + u);
    std::vector<mobility::Window> windows;
    for (int i = 0; i < 24; ++i) windows.push_back(random_window(rng));
    const models::WindowDataset data(windows, tiny_spec());
    models::PersonalizationConfig config;
    config.train.epochs = 1;
    config.train.batch_size = 8;
    config.fresh_hidden_dim = kHidden;
    config.seed = 7 + u;
    switch (u % 5) {
      case 0: config.method = models::PersonalizationMethod::kReuse; break;
      case 1:
        config.method = models::PersonalizationMethod::kFeatureExtraction;
        break;
      case 2: config.method = models::PersonalizationMethod::kFineTuning; break;
      case 3: config.method = models::PersonalizationMethod::kFreshLstm; break;
      case 4: out.push_back(nn::quantize_for_serving(general)); continue;
    }
    out.push_back(models::personalize(general, data, config).model);
  }
  return out;
}

core::DeployedModel deployment_of(const nn::SequenceClassifier& model,
                                  double temperature) {
  return {model.clone(), tiny_spec(), core::PrivacyLayer(temperature),
          core::DeploymentSite::kInCloud};
}

std::vector<PredictRequest> mixed_requests(std::size_t users,
                                           std::size_t count,
                                           std::uint64_t seed) {
  Rng rng(seed);
  std::vector<PredictRequest> requests;
  for (std::size_t i = 0; i < count; ++i) {
    requests.push_back({static_cast<std::uint32_t>(i % users),
                        random_window(rng), 1 + rng.below(5)});
  }
  return requests;
}

class SharedLayersTest : public ::testing::TestWithParam<double> {};

TEST_P(SharedLayersTest, SharedAndUnsharedDeploymentsAnswerAlike) {
  const double temperature = GetParam();
  constexpr std::size_t kUsers = 15;
  const auto models = user_models(kUsers);
  DeploymentRegistry registry(4);
  for (std::uint32_t u = 0; u < kUsers; ++u) {
    registry.deploy(u, deployment_of(models[u], temperature));
  }
  // The flavors that keep the trunk share one resident first layer.
  const auto first_layer = [&](std::uint32_t user) {
    return registry.handle(user).snapshot()->model().layers()[0].get();
  };
  EXPECT_EQ(first_layer(0), first_layer(1)) << "kReuse and TL-FE";
  EXPECT_EQ(first_layer(0), first_layer(2)) << "kReuse and TL-FT";
  EXPECT_EQ(first_layer(0), first_layer(5)) << "two kReuse users";
  EXPECT_NE(first_layer(0), first_layer(3)) << "a fresh LSTM is its own";
  EXPECT_EQ(first_layer(4), first_layer(9)) << "two int8 users";

  const auto requests = mixed_requests(kUsers, 200, 17);
  BatchScheduler scheduler(registry, {.max_batch = 32});
  const auto responses = scheduler.serve(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& request = requests[i];
    // Unshared reference: a deployment of its own copy of the model.
    const auto reference = deployment_of(models[request.user_id], temperature);
    ASSERT_TRUE(responses[i].ok) << "request " << i;
    EXPECT_EQ(responses[i].locations,
              reference.predict_top_k(request.window, request.k))
        << "request " << i << " at temperature " << temperature;
  }
}

INSTANTIATE_TEST_SUITE_P(PrivacyTemperatures, SharedLayersTest,
                         ::testing::Values(1e-3, 1.0, 10.0));

TEST(SharedLayers, OneDrainMixesEveryFlavorAndMatchesPerRow) {
  constexpr std::size_t kUsers = 10;
  const auto models = user_models(kUsers);
  DeploymentRegistry registry(4);
  for (std::uint32_t u = 0; u < kUsers; ++u) {
    registry.deploy(u, deployment_of(models[u], 1.0));
  }
  const auto requests = mixed_requests(kUsers, 40, 23);
  BatchScheduler scheduler(registry, {.max_batch = 64});
  const auto responses = scheduler.serve(requests);

  // First layers: the general trunk (kReuse, TL-FE, TL-FT), one per fresh
  // LSTM user, and the int8 trunk — so the 40 rows take 4 forwards.
  const auto snap = scheduler.stats().snapshot();
  EXPECT_EQ(snap.batches_run, 4u);
  EXPECT_EQ(snap.max_batch_size, 24u) << "3 flavors x 2 users x 4 rows";
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto reference =
        deployment_of(models[requests[i].user_id], 1.0);
    ASSERT_TRUE(responses[i].ok);
    EXPECT_EQ(responses[i].locations,
              reference.predict_top_k(requests[i].window, requests[i].k))
        << "request " << i;
  }
  // Every row spent one query of its own user's budget.
  for (std::uint32_t u = 0; u < kUsers; ++u) {
    EXPECT_EQ(registry.handle(u).snapshot()->query_count(), 4u) << "user " << u;
  }
}

TEST(SharedLayers, BadRowFailsOnlyItself) {
  const auto models = user_models(3);
  DeploymentRegistry registry(2);
  for (std::uint32_t u = 0; u < 3; ++u) {
    registry.deploy(u, deployment_of(models[u], 1.0));
  }
  Rng rng(31);
  auto requests = mixed_requests(3, 9, 41);
  mobility::Window outside = random_window(rng);
  outside.steps[1].location = kLocations + 2;  // outside every user's domain
  requests[4].window = outside;                 // user 1
  requests.push_back({77, random_window(rng), 3});  // never deployed

  BatchScheduler scheduler(registry, {.max_batch = 32});
  const auto responses = scheduler.serve(requests);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (i == 4 || requests[i].user_id == 77) {
      EXPECT_FALSE(responses[i].ok) << "request " << i;
      EXPECT_FALSE(responses[i].rejected) << "admitted, just unservable";
      continue;
    }
    ASSERT_TRUE(responses[i].ok) << "request " << i;
    const auto reference = deployment_of(models[requests[i].user_id], 1.0);
    EXPECT_EQ(responses[i].locations,
              reference.predict_top_k(requests[i].window, requests[i].k));
  }
  EXPECT_EQ(registry.handle(1).snapshot()->query_count(), 2u)
      << "the failed row is not charged";
  EXPECT_EQ(scheduler.stats().snapshot().requests_rejected, 2u);
}

TEST(SharedLayers, IdenticalDeploymentsKeepOneResidentCopy) {
  constexpr std::uint32_t kUsers = 4096;
  const nn::SequenceClassifier general = general_model();
  const std::size_t model_bytes = [&] {
    std::size_t bytes = general.head().content().bytes();
    for (std::size_t i = 0; i < general.layer_count(); ++i) {
      bytes += general.layer(i).content().bytes();
    }
    return bytes;
  }();

  std::weak_ptr<const nn::SequenceLayer> trunk;
  {
    DeploymentRegistry registry(16);
    for (std::uint32_t u = 0; u < kUsers; ++u) {
      registry.deploy(u, deployment_of(general, 1.0));
    }
    const auto residency = registry.residency();
    EXPECT_EQ(residency.layers, general.layer_count() + 1)
        << "each layer and the head once, not once per user";
    EXPECT_EQ(residency.bytes, model_bytes);
    auto first = registry.handle(0).snapshot();
    auto last = registry.handle(kUsers - 1).snapshot();
    for (std::size_t i = 0; i < general.layer_count(); ++i) {
      EXPECT_EQ(first->model().layers()[i], last->model().layers()[i]);
    }
    EXPECT_EQ(first->model().head_ptr(), last->model().head_ptr());
    trunk = first->model().layers()[0];

    for (std::uint32_t u = 0; u + 1 < kUsers; ++u) registry.erase(u);
    EXPECT_FALSE(trunk.expired()) << "one user still deploys it";
    EXPECT_EQ(registry.residency().layers, general.layer_count() + 1);
    registry.erase(kUsers - 1);
    EXPECT_FALSE(trunk.expired()) << "a snapshot still holds it";
    first.reset();
    last.reset();
    EXPECT_TRUE(trunk.expired()) << "freed with its last user";
    EXPECT_EQ(registry.residency().layers, 0u);
  }
}

TEST(SharedLayers, ResidencyFallsToZeroWhenEveryUserIsErased) {
  DeploymentRegistry registry(4);
  const nn::SequenceClassifier general = general_model();
  for (std::uint32_t u = 0; u < 64; ++u) {
    registry.deploy(u, deployment_of(general, 1.0));
  }
  std::weak_ptr<const nn::SequenceLayer> trunk =
      registry.handle(0).snapshot()->model().layers()[0];
  for (std::uint32_t u = 0; u < 64; ++u) registry.erase(u);
  EXPECT_TRUE(trunk.expired());
  EXPECT_EQ(registry.residency().layers, 0u);
  EXPECT_EQ(registry.residency().bytes, 0u);

  // Re-deploying after the table emptied makes the content resident again.
  registry.deploy(1, deployment_of(general, 1.0));
  EXPECT_EQ(registry.residency().layers, general.layer_count() + 1);
}

TEST(SharedLayers, EightThreadsServeUsersOnOneSharedLayer) {
  constexpr std::uint32_t kUsers = 16;
  constexpr std::size_t kThreads = 8;
  const nn::SequenceClassifier general = general_model();
  DeploymentRegistry registry(4);
  for (std::uint32_t u = 0; u < kUsers; ++u) {
    registry.deploy(u, deployment_of(general, 1.0));
  }
  const auto reference = deployment_of(general, 1.0);
  BatchScheduler scheduler(registry, {.max_batch = 8});

  std::vector<std::vector<PredictRequest>> work(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    work[t] = mixed_requests(kUsers, 48, 100 + t);
  }
  std::vector<std::vector<PredictResponse>> answers(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t start = 0; start < work[t].size(); start += 6) {
        const std::span<const PredictRequest> call(work[t].data() + start, 6);
        for (auto& response : scheduler.serve(call)) {
          answers[t].push_back(std::move(response));
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  std::size_t queries = 0;
  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(answers[t].size(), work[t].size());
    for (std::size_t i = 0; i < work[t].size(); ++i) {
      ASSERT_TRUE(answers[t][i].ok);
      EXPECT_EQ(answers[t][i].locations,
                reference.predict_top_k(work[t][i].window, work[t][i].k));
    }
    queries += work[t].size();
  }
  std::size_t charged = 0;
  for (std::uint32_t u = 0; u < kUsers; ++u) {
    charged += registry.handle(u).snapshot()->query_count();
  }
  EXPECT_EQ(charged, queries);
}

}  // namespace
}  // namespace pelican::serve
