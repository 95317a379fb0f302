// Model deployment and the service-provider query interface (Section V-A3).
//
// A DeployedModel bundles a personalized model with the user's PrivacyLayer
// and implements the attack::BlackBoxModel interface — by construction the
// service provider (and therefore the inversion adversary) can only ever
// observe privacy-scaled confidences. Deployment is either on-device or
// in-cloud; the query API is identical, which is what lets Pelican keep the
// defense effective in both placements.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "attack/blackbox.hpp"
#include "core/privacy_layer.hpp"
#include "mobility/dataset.hpp"
#include "nn/inference_model.hpp"
#include "nn/model.hpp"

namespace pelican::core {

enum class DeploymentSite : std::uint8_t { kOnDevice = 0, kInCloud };

[[nodiscard]] constexpr const char* to_string(DeploymentSite site) noexcept {
  return site == DeploymentSite::kOnDevice ? "device" : "cloud";
}

/// Per-stage wall-clock breakdown of one predict_top_k_shared call. A plain
/// out-param struct (not an obs type) so core stays below the observability
/// layer in the lattice; the serving tier maps these onto its stage
/// histograms and trace spans.
struct PredictStageSeconds {
  double encode = 0.0;   ///< window -> sparse one-hot encoding
  double forward = 0.0;  ///< LSTM + head forward pass
  double rank = 0.0;     ///< top-k ranking over the logits
};

class DeployedModel;

/// One row of a cross-deployment batch (DeployedModel::predict_top_k_shared).
struct SharedRow {
  const DeployedModel* deployment = nullptr;
  const mobility::Window* window = nullptr;
  std::size_t k = 0;  ///< how many next-location candidates to return
};

/// A personalized model as exposed to the mobile service.
///
/// The model itself is immutable (nn::InferenceModel behind a
/// shared_ptr<const>) and only ever runs through the const infer() path, so
/// a deployment can be queried from any number of threads at once, its
/// replicas share the weights, and a serving engine may share identical
/// layers between deployments (serve::DeploymentRegistry interns them).
class DeployedModel final : public attack::BlackBoxModel {
 public:
  /// `model_version` tags which stored model version (store::ModelKey
  /// version) this deployment serves; 0 means "unversioned" (built directly
  /// from a model object rather than published from a store).
  DeployedModel(nn::SequenceClassifier model, mobility::EncodingSpec spec,
                PrivacyLayer privacy, DeploymentSite site,
                std::uint32_t model_version = 0)
      : DeployedModel(
            std::make_shared<const nn::InferenceModel>(std::move(model)),
            spec, privacy, site, model_version) {}

  /// Deploys an already-built (possibly layer-sharing) model. Throws
  /// std::invalid_argument on a null model.
  DeployedModel(std::shared_ptr<const nn::InferenceModel> model,
                mobility::EncodingSpec spec, PrivacyLayer privacy,
                DeploymentSite site, std::uint32_t model_version = 0);

  /// Black-box prediction: forward pass + privacy-scaled softmax. This is
  /// the ONLY read path; raw logits never leave the deployment.
  ///
  /// Query accounting is per ROW served, not per forward call: a batched
  /// input of B rows spends B units of the attack query budget, exactly as
  /// B single queries would. Anything else would make privacy audits
  /// (Section V, attack query counts) depend on how the adversary batches.
  [[nodiscard]] nn::Matrix query(const nn::Sequence& input) override {
    add_queries(input.empty() ? 0 : input.front().rows());
    return privacy_.apply(model_->infer(input));
  }

  /// Sparse-encoded query: the same confidences, bit for bit, via the
  /// one-hot gather kernels (nn/sparse.hpp). Same per-row budget spend.
  [[nodiscard]] nn::Matrix query(const nn::SparseSequence& input) override {
    add_queries(input.empty() ? 0 : input.front().rows());
    return privacy_.apply(model_->infer(input));
  }

  // Movable so deployments can live in containers and be handed between
  // tiers; moving is not thread-safe (unlike the query counter, which is
  // atomic because a publisher reads it while serving threads add to it).
  // The counter lives behind a shared_ptr precisely so moves are safe while
  // replicas (see replicate()) are outstanding: the counter object's
  // address is stable no matter where the deployment itself moves. Moves
  // SHARE the counter with the moved-from shell rather than emptying it,
  // so a drained source still answers query_count() consistently.
  DeployedModel(DeployedModel&& other) noexcept
      : model_(std::move(other.model_)),
        spec_(other.spec_),
        privacy_(other.privacy_),
        site_(other.site_),
        model_version_(other.model_version_),
        queries_(other.queries_) {}
  DeployedModel& operator=(DeployedModel&& other) noexcept {
    model_ = std::move(other.model_);
    spec_ = other.spec_;
    privacy_ = other.privacy_;
    site_ = other.site_;
    model_version_ = other.model_version_;
    queries_ = other.queries_;
    return *this;
  }

  /// An independent deployment of the same (shared, immutable) model with
  /// the same privacy layer and placement; its query counter starts at a
  /// snapshot of this one's and counts on its own from there.
  [[nodiscard]] DeployedModel clone() const {
    DeployedModel copy(model_, spec_, privacy_, site_, model_version_);
    copy.set_query_count(query_count());
    return copy;
  }

  /// attack::BlackBoxModel::replicate: a deployment of the same shared
  /// model whose queries are charged to THIS deployment's budget (the
  /// adversary is still spending one user's query budget, however many
  /// scoring workers it runs). The counter is shared by shared_ptr, so
  /// replicas stay valid even if this deployment moves or is destroyed
  /// first.
  [[nodiscard]] std::unique_ptr<attack::BlackBoxModel> replicate() override {
    auto copy = std::make_unique<DeployedModel>(model_, spec_, privacy_,
                                                site_, model_version_);
    copy->queries_ = queries_;
    return copy;
  }

  [[nodiscard]] std::size_t num_classes() const override {
    return model_->num_classes();
  }
  [[nodiscard]] const mobility::EncodingSpec& spec() const override {
    return spec_;
  }

  /// Top-k next locations for a single encoded window — the service's
  /// primary operation (e.g. prefetching content for likely destinations).
  [[nodiscard]] std::vector<std::uint16_t> predict_top_k(
      const mobility::Window& window, std::size_t k) const;

  /// Batched top-k: encodes all windows into one multi-row sequence and runs
  /// ONE forward pass, so a coalescing serving engine amortizes the LSTM
  /// across B queries. Row r of the result is bit-identical to
  /// predict_top_k(windows[r], k): every kernel under infer() accumulates
  /// per-row in a fixed order and the top-k reduction is per-row, so batching
  /// never changes what any user is served (the Section V-B service-quality
  /// invariant, now also batch-size-independent). Throws when any window
  /// lies outside the deployment's encoding domain.
  [[nodiscard]] std::vector<std::vector<std::uint16_t>> predict_top_k_batch(
      std::span<const mobility::Window> windows, std::size_t k) const;

  /// Batched top-k across deployments: row r asks rows[r].deployment for
  /// the top rows[r].k of rows[r].window. Each window is encoded against its
  /// own deployment's spec, each row spends one query of its own
  /// deployment's budget, and the forward runs through nn::infer_shared, so
  /// a layer shared by several deployments runs once for all their rows.
  /// Result r is bit-identical to rows[r].deployment->predict_top_k(...),
  /// or std::nullopt when that window cannot be encoded for its deployment
  /// (outside its domain) — such a row fails alone and is not charged.
  ///
  /// When `stages` is non-null the encode/forward/rank wall-clock split is
  /// written into it (three extra clock reads; nullptr skips them).
  [[nodiscard]] static std::vector<std::optional<std::vector<std::uint16_t>>>
  predict_top_k_shared(std::span<const SharedRow> rows,
                       PredictStageSeconds* stages = nullptr);

  [[nodiscard]] DeploymentSite site() const noexcept { return site_; }
  [[nodiscard]] std::size_t query_count() const noexcept {
    return queries_->load(std::memory_order_relaxed);
  }
  [[nodiscard]] double temperature() const noexcept {
    return privacy_.temperature();
  }
  [[nodiscard]] const PrivacyLayer& privacy() const noexcept {
    return privacy_;
  }
  /// Which stored model version this deployment serves (0 = unversioned).
  [[nodiscard]] std::uint32_t model_version() const noexcept {
    return model_version_;
  }

  /// The served model (immutable; its layers may be shared with other
  /// deployments).
  [[nodiscard]] const nn::InferenceModel& model() const noexcept {
    return *model_;
  }

  /// True when this deployment serves an int8 artifact (the store published
  /// it with PublishFormat::kInt8). Queries then run the dequant-free
  /// quantized kernels; answers track an fp32 deployment of the same weights
  /// within the nn/quant.hpp tolerance rather than bit-identically.
  [[nodiscard]] bool quantized() const { return model_->quantized(); }

  /// Model-update bookkeeping: the attack query budget is cumulative per
  /// USER, not per model object, so a replacement deployment published for
  /// the same user inherits the count the old one accumulated.
  void set_query_count(std::size_t count) noexcept {
    queries_->store(count, std::memory_order_relaxed);
  }

  /// Replaces the model in place (on-device Pelican model update, Section
  /// V-A4). Not safe against concurrent queries of this object: the serving
  /// engine's multi-user path publishes a whole replacement DeployedModel
  /// instead (serve::DeploymentRegistry::publish).
  void swap_model(nn::SequenceClassifier model) {
    swap_model(std::make_shared<const nn::InferenceModel>(std::move(model)));
  }
  void swap_model(std::shared_ptr<const nn::InferenceModel> model);

 private:
  /// Charges `rows` queries to the budget. Const: the counter is shared
  /// bookkeeping behind a pointer, not part of the deployment's value.
  void add_queries(std::size_t rows) const noexcept {
    queries_->fetch_add(rows, std::memory_order_relaxed);
  }

  std::shared_ptr<const nn::InferenceModel> model_;
  mobility::EncodingSpec spec_;
  PrivacyLayer privacy_;
  DeploymentSite site_;
  std::uint32_t model_version_ = 0;
  // Atomic: a publisher snapshots the count (DeploymentRegistry::publish)
  // while serving threads add to it concurrently.
  // Behind a shared_ptr for address stability: scoring replicas (see
  // replicate()) hold the same counter, and the deployment itself may move
  // between containers/tiers while they do.
  std::shared_ptr<std::atomic<std::size_t>> queries_ =
      std::make_shared<std::atomic<std::size_t>>(0);
};

}  // namespace pelican::core
