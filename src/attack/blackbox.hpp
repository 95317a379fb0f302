// The adversary's view of a deployed model: query encoded inputs, receive
// confidence scores for every class. Pelican's deployment (with or without
// the privacy layer) implements this interface; attacks are written against
// it so the same attack code measures leakage before and after the defense.
#pragma once

#include <cstddef>
#include <memory>

#include "mobility/dataset.hpp"
#include "nn/model.hpp"

namespace pelican::attack {

class BlackBoxModel {
 public:
  virtual ~BlackBoxModel() = default;

  /// Confidence scores (rows sum to 1) for a batch of encoded windows.
  [[nodiscard]] virtual nn::Matrix query(const nn::Sequence& input) = 0;

  /// Sparse-encoded query — the attack scorer's fast path (candidate
  /// windows are one-hot). The default densifies and delegates, so existing
  /// implementations keep working; real deployments override with the
  /// gather kernels and return bit-identical confidences either way.
  [[nodiscard]] virtual nn::Matrix query(const nn::SparseSequence& input) {
    return query(nn::to_dense(input));
  }

  /// A replica serving the same model: same weights, same privacy
  /// behavior, safe to query from another thread concurrently (parallel
  /// candidate scoring) — by sharing an immutable model (core's
  /// DeployedModel) or by owning a copy (PlainBlackBox). Queries against a replica count against the ORIGINAL's
  /// budget, and the replica must not outlive it. Returns nullptr when the
  /// implementation cannot replicate (scoring then stays serial).
  [[nodiscard]] virtual std::unique_ptr<BlackBoxModel> replicate() {
    return nullptr;
  }

  [[nodiscard]] virtual std::size_t num_classes() const = 0;

  /// Encoding layout the model was trained with (needed to build candidate
  /// inputs). Part of the service API: the provider submits inputs in this
  /// format anyway.
  [[nodiscard]] virtual const mobility::EncodingSpec& spec() const = 0;
};

/// Adapter exposing a raw SequenceClassifier as a black box with standard
/// softmax confidences — a deployment *without* Pelican's privacy layer.
class PlainBlackBox final : public BlackBoxModel {
 public:
  PlainBlackBox(nn::SequenceClassifier& model, mobility::EncodingSpec spec)
      : model_(&model), spec_(spec) {}

  [[nodiscard]] nn::Matrix query(const nn::Sequence& input) override {
    return model_->predict_proba(input);
  }
  [[nodiscard]] nn::Matrix query(const nn::SparseSequence& input) override {
    return model_->predict_proba(input);
  }

  /// Replicas own a deep copy of the model (the adapter itself only
  /// borrows), giving each scoring worker private forward caches.
  [[nodiscard]] std::unique_ptr<BlackBoxModel> replicate() override {
    auto owned = std::make_shared<nn::SequenceClassifier>(model_->clone());
    auto copy = std::make_unique<PlainBlackBox>(*owned, spec_);
    copy->owned_ = std::move(owned);
    return copy;
  }

  [[nodiscard]] std::size_t num_classes() const override {
    return model_->num_classes();
  }
  [[nodiscard]] const mobility::EncodingSpec& spec() const override {
    return spec_;
  }

 private:
  nn::SequenceClassifier* model_;
  std::shared_ptr<nn::SequenceClassifier> owned_;  // set on replicas only
  mobility::EncodingSpec spec_;
};

}  // namespace pelican::attack
