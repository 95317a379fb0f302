// InferenceModel: an immutable, shareable serving form of a
// SequenceClassifier.
//
// Its layers and head are held as shared_ptr<const ...> and only ever run
// through the const, cache-free infer() path, so any number of models may
// point at the same layer object and any number of threads may run it at
// once. A serving engine uses this to keep ONE resident copy of each
// distinct layer — the frozen trunk that transfer-learning personalization
// (Fig. 1b/1c) leaves bit-identical in every user's model — and
// infer_shared() runs such a shared layer once over every row whose model
// shares it.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "nn/layer.hpp"
#include "nn/linear.hpp"
#include "nn/model.hpp"

namespace pelican::nn {

class InferenceModel {
 public:
  using LayerPtr = std::shared_ptr<const SequenceLayer>;
  using HeadPtr = std::shared_ptr<const Linear>;

  InferenceModel() = default;

  /// Takes over `model`'s layers and head (no weight copy).
  explicit InferenceModel(SequenceClassifier model);

  /// Assembles a model from existing (possibly shared) layers and head.
  /// Throws std::invalid_argument on a null layer or head.
  InferenceModel(std::vector<LayerPtr> layers, HeadPtr head);

  [[nodiscard]] std::size_t layer_count() const noexcept {
    return layers_.size();
  }
  [[nodiscard]] const SequenceLayer& layer(std::size_t i) const {
    return *layers_[i];
  }
  [[nodiscard]] std::span<const LayerPtr> layers() const noexcept {
    return layers_;
  }
  [[nodiscard]] const Linear& head() const noexcept { return *head_; }
  [[nodiscard]] const HeadPtr& head_ptr() const noexcept { return head_; }

  /// Identity of what this model applies at `depth`: its layer there, or
  /// its head once the layers are exhausted. Models that share that object
  /// (and so everything it computes) have equal identities.
  [[nodiscard]] const void* stage_identity(std::size_t depth) const noexcept {
    if (depth < layers_.size()) return layers_[depth].get();
    return head_.get();
  }

  [[nodiscard]] std::size_t input_dim() const;
  [[nodiscard]] std::size_t num_classes() const {
    return head_->output_dim();
  }

  /// Logits (batch x classes), bit-identical to the source
  /// SequenceClassifier's forward(input, /*training=*/false).
  [[nodiscard]] Matrix infer(const Sequence& input) const;
  [[nodiscard]] Matrix infer(const SparseSequence& input) const;

  /// True if any layer or the head carries int8 weights.
  [[nodiscard]] bool quantized() const;

 private:
  std::vector<LayerPtr> layers_;
  HeadPtr head_;
};

/// The logits of the rows of one infer_shared() batch that ended at the
/// same head: logits.row(i) belongs to batch row rows[i].
struct SharedLogits {
  std::vector<std::size_t> rows;
  Matrix logits;
};

/// Inference over a batch whose rows may belong to different models: row r
/// of `input` is an input of *models[r]. Rows are grouped by the identity
/// of their model's first layer, each group runs that layer ONCE, and each
/// group's output rows are re-split by the identity of the next layer, down
/// to the heads. Rows move between groups by exact copy and every kernel is
/// per-row invariant (the determinism contract of nn/matrix.hpp), so each
/// row's logits are bit-identical to models[r]->infer() of that row alone.
/// Every row appears in exactly one returned group (the group order is
/// deterministic). Every model must take input.cols()-wide input.
[[nodiscard]] std::vector<SharedLogits> infer_shared(
    std::span<const InferenceModel* const> models,
    const SparseSequence& input);

}  // namespace pelican::nn
