// LayerInterner: one resident, immutable copy of each distinct layer.
//
// Transfer-learning personalization (Fig. 1b/1c) leaves the general model's
// leading LSTM layers bit-identical in every user's model, and a model
// store hands every deployment its own deserialized copy of them. The
// interner maps each incoming layer (and head) to the canonical
// shared_ptr<const ...> with the same content — nn::LayerContent: kind,
// shape, weights, quantization scales, activation mode — so an engine holds
// each distinct layer once however many users deploy it, and the batch
// scheduler can run it once over every row that shares it.
//
// The table holds weak_ptrs: a canonical copy lives exactly as long as some
// deployed model uses it, and expired entries are pruned as the table is
// used. A hash hit is always confirmed by comparing the full content, so a
// hash collision can never substitute different weights.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/annotations.hpp"
#include "common/mutex.hpp"
#include "nn/inference_model.hpp"

namespace pelican::serve {

class LayerInterner {
 public:
  /// `model` with each layer and the head replaced by the resident copy of
  /// equal content; parts with no resident copy become resident themselves.
  /// Answers are unchanged: equal content infers bit-identically.
  [[nodiscard]] std::shared_ptr<const nn::InferenceModel> intern(
      const nn::InferenceModel& model);

  struct Residency {
    std::size_t layers = 0;  ///< distinct live layers and heads
    std::size_t bytes = 0;   ///< their weight bytes (LayerContent::bytes)
  };
  /// What is resident now (walks the table; for stats and tests).
  [[nodiscard]] Residency residency() const;

 private:
  template <typename T>
  using Table = std::unordered_multimap<std::uint64_t, std::weak_ptr<const T>>;

  template <typename T>
  std::shared_ptr<const T> canonical(Table<T>& table,
                                     const std::shared_ptr<const T>& part,
                                     std::uint64_t hash)
      PELICAN_REQUIRES(mutex_);

  template <typename T>
  void prune(Table<T>& table) PELICAN_REQUIRES(mutex_);

  mutable Mutex mutex_;
  Table<nn::SequenceLayer> layers_ PELICAN_GUARDED_BY(mutex_);
  Table<nn::Linear> heads_ PELICAN_GUARDED_BY(mutex_);
  /// Insertions since the last full sweep; a sweep runs once they reach
  /// half the table, so pruning stays amortized O(1) per insertion.
  std::size_t since_sweep_ PELICAN_GUARDED_BY(mutex_) = 0;
};

}  // namespace pelican::serve
