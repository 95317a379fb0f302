#include "core/service.hpp"

#include <map>
#include <stdexcept>

#include "common/timer.hpp"
#include "nn/loss.hpp"
#include "models/window_dataset.hpp"

namespace pelican::core {

namespace {

std::vector<std::uint16_t> as_locations(std::span<const std::size_t> top) {
  std::vector<std::uint16_t> locations;
  locations.reserve(top.size());
  for (const std::size_t i : top) {
    locations.push_back(static_cast<std::uint16_t>(i));
  }
  return locations;
}

}  // namespace

DeployedModel::DeployedModel(std::shared_ptr<const nn::InferenceModel> model,
                             mobility::EncodingSpec spec, PrivacyLayer privacy,
                             DeploymentSite site, std::uint32_t model_version)
    : model_(std::move(model)),
      spec_(spec),
      privacy_(privacy),
      site_(site),
      model_version_(model_version) {
  if (model_ == nullptr) {
    throw std::invalid_argument("DeployedModel: null model");
  }
}

void DeployedModel::swap_model(
    std::shared_ptr<const nn::InferenceModel> model) {
  if (model == nullptr) {
    throw std::invalid_argument("DeployedModel::swap_model: null model");
  }
  model_ = std::move(model);
}

std::vector<std::uint16_t> DeployedModel::predict_top_k(
    const mobility::Window& window, std::size_t k) const {
  return predict_top_k_batch(std::span<const mobility::Window>(&window, 1),
                             k)[0];
}

std::vector<std::vector<std::uint16_t>> DeployedModel::predict_top_k_batch(
    std::span<const mobility::Window> windows, std::size_t k) const {
  if (windows.empty()) return {};
  // Sparse one-hot encoding: the LSTM input product becomes nnz row
  // gathers instead of an input_dim x 4*hidden GEMM per timestep, with
  // bit-identical logits (nn/sparse.hpp) — so this fast path cannot change
  // what any user is served.
  const nn::SparseSequence x = models::encode_windows_sparse(windows, spec_);
  // Rank in the log domain: softmax at any temperature is strictly monotone
  // in the logits, so the top-k of the privacy-scaled confidences IS the
  // top-k of the logits. Ranking there sidesteps the float saturation of
  // the magnitude path at strong temperatures (ranks 2..k would otherwise
  // collapse into exact-zero ties), which is what keeps service quality
  // bit-identical with the privacy layer on — the Section V-B invariant.
  // A k-slot response reveals only the ordered index list it necessarily
  // reveals; graded magnitudes remain behind query().
  add_queries(windows.size());
  const auto top_rows = nn::topk_rows(model_->infer(x), k);
  std::vector<std::vector<std::uint16_t>> out;
  out.reserve(top_rows.size());
  for (const auto& top : top_rows) out.push_back(as_locations(top));
  return out;
}

std::vector<std::optional<std::vector<std::uint16_t>>>
DeployedModel::predict_top_k_shared(std::span<const SharedRow> rows,
                                    PredictStageSeconds* stages) {
  std::vector<std::optional<std::vector<std::uint16_t>>> out(rows.size());
  Stopwatch watch;
  // Encode each row against its own deployment's spec. Rows batch by input
  // width — one batch in practice, since rows that share a first layer
  // share its width; a deployment whose spec does not fit its own model
  // fails its rows.
  struct Batch {
    std::vector<std::size_t> rows;  // indices into `rows`
    nn::SparseSequence x;
  };
  std::map<std::size_t, Batch> batches;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const DeployedModel& deployment = *rows[r].deployment;
    const std::size_t width = deployment.spec_.input_dim();
    if (width == deployment.model_->input_dim()) {
      batches[width].rows.push_back(r);
    }
  }
  for (auto& [width, batch] : batches) {
    for (;;) {
      batch.x.assign(mobility::kWindowSteps,
                     nn::SparseRows(batch.rows.size(), width));
      for (nn::SparseRows& step : batch.x) step.reserve(4 * batch.rows.size());
      std::size_t i = 0;
      try {
        for (; i < batch.rows.size(); ++i) {
          const SharedRow& row = rows[batch.rows[i]];
          models::encode_window(*row.window, row.deployment->spec_, batch.x,
                                i);
        }
        break;
      } catch (const std::exception&) {
        // Row i's window lies outside its deployment's domain: that row
        // fails alone, and the batch is encoded again without it.
        batch.rows.erase(batch.rows.begin() +
                         static_cast<std::ptrdiff_t>(i));
      }
    }
  }
  if (stages != nullptr) {
    stages->encode = watch.seconds();
    watch.reset();
  }

  std::vector<nn::SharedLogits> groups;
  std::vector<const std::vector<std::size_t>*> group_rows;
  for (const auto& [width, batch] : batches) {
    std::vector<const nn::InferenceModel*> models;
    models.reserve(batch.rows.size());
    for (const std::size_t r : batch.rows) {
      const DeployedModel& deployment = *rows[r].deployment;
      deployment.add_queries(1);
      models.push_back(deployment.model_.get());
    }
    for (auto& group : nn::infer_shared(models, batch.x)) {
      groups.push_back(std::move(group));
      group_rows.push_back(&batch.rows);
    }
  }
  if (stages != nullptr) {
    stages->forward = watch.seconds();
    watch.reset();
  }

  // Log-domain ranking per row, with that row's own k (see
  // predict_top_k_batch for why the logits rank like the confidences).
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const nn::SharedLogits& group = groups[g];
    for (std::size_t i = 0; i < group.rows.size(); ++i) {
      const std::size_t r = (*group_rows[g])[group.rows[i]];
      out[r] = as_locations(nn::topk_indices(group.logits.row(i), rows[r].k));
    }
  }
  if (stages != nullptr) stages->rank = watch.seconds();
  return out;
}

}  // namespace pelican::core
