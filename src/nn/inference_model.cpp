#include "nn/inference_model.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

namespace pelican::nn {

InferenceModel::InferenceModel(SequenceClassifier model) {
  layers_.reserve(model.layers_.size());
  for (auto& layer : model.layers_) layers_.emplace_back(std::move(layer));
  head_ = std::make_shared<const Linear>(std::move(model.head_));
}

InferenceModel::InferenceModel(std::vector<LayerPtr> layers, HeadPtr head)
    : layers_(std::move(layers)), head_(std::move(head)) {
  if (head_ == nullptr ||
      std::any_of(layers_.begin(), layers_.end(),
                  [](const LayerPtr& layer) { return layer == nullptr; })) {
    throw std::invalid_argument("InferenceModel: null layer or head");
  }
}

std::size_t InferenceModel::input_dim() const {
  return layers_.empty() ? head_->input_dim() : layers_.front()->input_dim();
}

Matrix InferenceModel::infer(const Sequence& input) const {
  return detail::infer_stack(layers_, *head_, input);
}

Matrix InferenceModel::infer(const SparseSequence& input) const {
  return detail::infer_stack(layers_, *head_, input);
}

bool InferenceModel::quantized() const {
  return head_->is_quantized() ||
         std::any_of(layers_.begin(), layers_.end(), [](const LayerPtr& l) {
           return l->kind() == "qlstm";
         });
}

namespace {

using Rows = std::vector<std::size_t>;

/// Positions [0, rows.size()) split by the stage their row's model applies
/// at `depth`, each part in ascending order, parts by first position.
std::vector<Rows> split_by_stage(std::span<const InferenceModel* const> models,
                                 const Rows& rows, std::size_t depth) {
  std::vector<const void*> stages;
  std::vector<Rows> parts;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const void* stage = models[rows[i]]->stage_identity(depth);
    const auto found = std::find(stages.begin(), stages.end(), stage);
    if (found == stages.end()) {
      stages.push_back(stage);
      parts.push_back({i});
    } else {
      parts[static_cast<std::size_t>(found - stages.begin())].push_back(i);
    }
  }
  return parts;
}

Rows pick(const Rows& rows, const Rows& positions) {
  Rows out;
  out.reserve(positions.size());
  for (const std::size_t p : positions) out.push_back(rows[p]);
  return out;
}

Sequence gather(const Sequence& input, const Rows& positions) {
  Sequence out;
  out.reserve(input.size());
  for (const Matrix& step : input) {
    Matrix rows(positions.size(), step.cols());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      const auto src = step.row(positions[i]);
      std::copy(src.begin(), src.end(), rows.row(i).begin());
    }
    out.push_back(std::move(rows));
  }
  return out;
}

SparseSequence gather(const SparseSequence& input, const Rows& positions) {
  SparseSequence out;
  out.reserve(input.size());
  for (const SparseRows& step : input) {
    SparseRows rows(positions.size(), step.cols());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      for (const auto& entry : step.row(positions[i])) {
        rows.add(i, entry.col, entry.val);
      }
    }
    out.push_back(std::move(rows));
  }
  return out;
}

/// Runs the stages from `depth` on: `activations` row i belongs to batch
/// row rows[i], and every row's model has applied the same layers so far.
void descend(std::span<const InferenceModel* const> models, const Rows& rows,
             Sequence activations, std::size_t depth,
             std::vector<SharedLogits>& out) {
  const std::vector<Rows> parts = split_by_stage(models, rows, depth);
  for (const Rows& part : parts) {
    Rows part_rows = pick(rows, part);
    // One part takes the activations whole; several copy their rows out.
    Sequence x = parts.size() == 1 ? std::move(activations)
                                   : gather(activations, part);
    const InferenceModel& model = *models[part_rows.front()];
    if (depth < model.layer_count()) {
      descend(models, part_rows, model.layer(depth).infer(x), depth + 1, out);
    } else {
      out.push_back({std::move(part_rows), model.head().infer(x.back())});
    }
  }
}

}  // namespace

std::vector<SharedLogits> infer_shared(
    std::span<const InferenceModel* const> models,
    const SparseSequence& input) {
  std::vector<SharedLogits> out;
  if (models.empty()) return out;
  if (input.empty() || input.front().rows() != models.size()) {
    throw std::invalid_argument("infer_shared: one model per input row");
  }
  Rows rows(models.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  // The first stage reads the sparse encoding; the rest is dense, exactly as
  // in InferenceModel::infer(const SparseSequence&).
  const std::vector<Rows> parts = split_by_stage(models, rows, 0);
  for (const Rows& part : parts) {
    const SparseSequence gathered =
        parts.size() == 1 ? SparseSequence() : gather(input, part);
    const SparseSequence& x = parts.size() == 1 ? input : gathered;
    const InferenceModel& model = *models[part.front()];
    if (model.layer_count() > 0) {
      descend(models, part, model.layer(0).infer_sparse(x), 1, out);
    } else {
      out.push_back({part, model.head().infer(x.back())});
    }
  }
  return out;
}

}  // namespace pelican::nn
