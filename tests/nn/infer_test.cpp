// infer() — the const, cache-free inference forward — against
// forward(training=false): bit for bit, for dense and sparse input, fp32 and
// int8 models, both activation modes, and every batch size from 1 to 33.
// Also: infer() leaves forward()'s backward cache alone, and infer_shared()
// over rows of different models matches each model's own infer() per row.
#include "nn/inference_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <iterator>
#include <memory>
#include <tuple>

#include "common/rng.hpp"
#include "nn/linear.hpp"
#include "nn/lstm.hpp"
#include "nn/model.hpp"

namespace pelican::nn {
namespace {

constexpr std::size_t kInput = 23;
constexpr std::size_t kHidden = 6;
constexpr std::size_t kClasses = 7;
constexpr std::size_t kSteps = 2;

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

/// One-hot-like rows: three ascending columns per row, plus an empty row
/// now and then (the gather kernels must handle nnz = 0).
SparseSequence random_sparse(std::size_t batch, Rng& rng) {
  SparseSequence x(kSteps, SparseRows(batch, kInput));
  for (SparseRows& step : x) {
    for (std::size_t r = 0; r < batch; ++r) {
      if (rng.below(9) == 0) continue;
      std::size_t col = rng.below(5);
      for (int e = 0; e < 3 && col < kInput; ++e) {
        step.add(r, col, e == 2 ? 0.5f : 1.0f);
        col += 1 + rng.below(8);
      }
    }
  }
  return x;
}

SequenceClassifier make_model(bool int8, ActivationMode mode,
                              std::uint64_t seed) {
  Rng rng(seed);
  SequenceClassifier model =
      make_two_layer_lstm(kInput, kHidden, kClasses, 0.1, rng);
  if (int8) model = quantize_for_serving(model);
  model.set_activation_mode(mode);
  return model;
}

using InferCase = std::tuple<bool, ActivationMode>;

class InferEqualsForwardTest : public ::testing::TestWithParam<InferCase> {};

TEST_P(InferEqualsForwardTest, BitIdenticalForEveryBatchSize) {
  const auto [int8, mode] = GetParam();
  SequenceClassifier model = make_model(int8, mode, 31);
  Rng rng(77);
  for (std::size_t batch = 1; batch <= 33; ++batch) {
    const SparseSequence sparse = random_sparse(batch, rng);
    const Sequence dense = to_dense(sparse);
    const Matrix forward_dense = model.forward(dense, /*training=*/false);
    const Matrix forward_sparse = model.forward(sparse, /*training=*/false);
    EXPECT_TRUE(same_bits(model.infer(dense), forward_dense))
        << "dense, batch " << batch;
    EXPECT_TRUE(same_bits(model.infer(sparse), forward_sparse))
        << "sparse, batch " << batch;

    // Layer by layer too: each layer's infer against its own forward.
    Sequence activations = dense;
    for (std::size_t i = 0; i < model.layer_count(); ++i) {
      const Sequence inferred = model.layer(i).infer(activations);
      activations = model.layer(i).forward(activations, /*training=*/false);
      ASSERT_EQ(inferred.size(), activations.size());
      for (std::size_t t = 0; t < inferred.size(); ++t) {
        EXPECT_TRUE(same_bits(inferred[t], activations[t]))
            << "layer " << i << ", step " << t << ", batch " << batch;
      }
    }
    EXPECT_TRUE(same_bits(model.head().infer(activations.back()),
                          model.head().forward(activations.back())))
        << "head, batch " << batch;
  }

  // The immutable serving form answers the same.
  const SparseSequence x = random_sparse(9, rng);
  const Matrix reference = model.forward(x, /*training=*/false);
  const InferenceModel frozen(model.clone());
  EXPECT_TRUE(same_bits(frozen.infer(x), reference));
  EXPECT_TRUE(same_bits(frozen.infer(to_dense(x)), reference));
  EXPECT_EQ(frozen.quantized(), int8);
}

INSTANTIATE_TEST_SUITE_P(
    Fp32AndInt8BothModes, InferEqualsForwardTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(ActivationMode::kExact,
                                         ActivationMode::kFastApprox)));

TEST(Infer, LeavesTheBackwardCacheOfTheLastForwardAlone) {
  Rng rng(5);
  SequenceClassifier model = make_model(false, ActivationMode::kExact, 8);
  SequenceClassifier twin = model.clone();
  const SparseSequence x = random_sparse(4, rng);
  const SparseSequence other = random_sparse(6, rng);
  const Matrix grad(4, kClasses, 0.25f);

  (void)model.forward(x, /*training=*/false);
  (void)model.infer(other);  // must not disturb what backward reads
  const Sequence grad_input = model.backward(grad);

  (void)twin.forward(x, /*training=*/false);
  const Sequence expected = twin.backward(grad);
  ASSERT_EQ(grad_input.size(), expected.size());
  for (std::size_t t = 0; t < expected.size(); ++t) {
    EXPECT_TRUE(same_bits(grad_input[t], expected[t])) << "step " << t;
  }
}

TEST(LayerContent, EqualWeightsEqualContentAndTrainableFlagIgnored) {
  Rng rng(3);
  Lstm lstm(kInput, kHidden, rng);
  const auto copy = lstm.clone();
  copy->set_trainable(false);
  EXPECT_EQ(lstm.content(), copy->content());
  EXPECT_EQ(lstm.content().hash(), copy->content().hash());
  EXPECT_EQ(lstm.content().bytes(),
            (lstm.w_ih().size() + lstm.w_hh().size() + lstm.bias().size()) *
                sizeof(float));

  // One flipped weight bit, or another activation mode, is other content.
  auto flipped = lstm.clone();
  auto& tweaked = dynamic_cast<Lstm&>(*flipped);
  tweaked.w_hh()(1, 2) = std::nextafter(tweaked.w_hh()(1, 2), 10.0f);
  EXPECT_FALSE(lstm.content() == flipped->content());
  auto fast = lstm.clone();
  fast->set_activation_mode(ActivationMode::kFastApprox);
  EXPECT_FALSE(lstm.content() == fast->content());

  Linear head(kHidden, kClasses, rng);
  Linear twin = head;
  twin.set_trainable(false);
  EXPECT_EQ(head.content(), twin.content());
  EXPECT_FALSE(head.content() == head.quantized().content());
}

TEST(InferShared, MixedModelsMatchEachModelAlone) {
  // Three models on one shared trunk (the first LSTM) that diverge at
  // different depths, plus a model of its own and an int8 model.
  Rng rng(21);
  SequenceClassifier general =
      make_two_layer_lstm(kInput, kHidden, kClasses, 0.1, rng);
  const auto base = std::make_shared<const InferenceModel>(general.clone());
  std::vector<InferenceModel::LayerPtr> layers(base->layers().begin(),
                                               base->layers().end());
  // Same trunk, own second LSTM and head.
  std::vector<InferenceModel::LayerPtr> tuned_layers = layers;
  tuned_layers.back() = std::make_shared<const Lstm>(kHidden, kHidden, rng);
  const InferenceModel tuned(
      tuned_layers, std::make_shared<const Linear>(kHidden, kClasses, rng));
  // Whole general stack plus an extra LSTM, own head.
  std::vector<InferenceModel::LayerPtr> extended_layers = layers;
  extended_layers.push_back(std::make_shared<const Lstm>(kHidden, kHidden, rng));
  const InferenceModel extended(
      extended_layers, std::make_shared<const Linear>(kHidden, kClasses, rng));
  const InferenceModel fresh(
      make_one_layer_lstm(kInput, kHidden + 3, kClasses, 0.0, rng));
  const InferenceModel int8(quantize_for_serving(general));

  const InferenceModel* zoo[] = {base.get(), &tuned, &extended, &fresh,
                                 &int8};
  for (const std::size_t batch : {1u, 2u, 7u, 33u}) {
    const SparseSequence x = random_sparse(batch, rng);
    std::vector<const InferenceModel*> models;
    for (std::size_t r = 0; r < batch; ++r) {
      models.push_back(zoo[rng.below(std::size(zoo))]);
    }
    const auto groups = infer_shared(models, x);
    std::vector<int> seen(batch, 0);
    for (const SharedLogits& group : groups) {
      ASSERT_EQ(group.logits.rows(), group.rows.size());
      for (std::size_t i = 0; i < group.rows.size(); ++i) {
        const std::size_t r = group.rows[i];
        ++seen[r];
        SparseSequence alone(kSteps, SparseRows(1, kInput));
        for (std::size_t t = 0; t < kSteps; ++t) {
          for (const auto& entry : x[t].row(r)) {
            alone[t].add(0, entry.col, entry.val);
          }
        }
        const Matrix expected = models[r]->infer(alone);
        Matrix got(1, group.logits.cols());
        std::memcpy(got.data(), group.logits.row(i).data(),
                    got.size() * sizeof(float));
        EXPECT_TRUE(same_bits(got, expected))
            << "row " << r << " of batch " << batch;
      }
    }
    for (std::size_t r = 0; r < batch; ++r) {
      EXPECT_EQ(seen[r], 1) << "row " << r << " answered once";
    }
  }
}

TEST(InferShared, RejectsMismatchedRowCount) {
  Rng rng(2);
  const InferenceModel model(
      make_one_layer_lstm(kInput, kHidden, kClasses, 0.0, rng));
  const InferenceModel* models[] = {&model, &model};
  EXPECT_THROW((void)infer_shared(models, random_sparse(3, rng)),
               std::invalid_argument);
  EXPECT_TRUE(infer_shared({}, SparseSequence{}).empty());
}

}  // namespace
}  // namespace pelican::nn
