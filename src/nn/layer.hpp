// Layer abstraction for sequence models.
//
// A Sequence is a time-major list of (batch x dim) matrices. Layers cache
// whatever they need during forward() and consume it in backward(); infer()
// is the const, cache-free inference forward, so one resident layer object
// can serve any number of models and threads at once.
// backward() always produces gradients with respect to the layer input —
// even for frozen layers — because the model-inversion attack (paper
// Section III-B2) differentiates the loss all the way down to the input
// encoding. Freezing only affects whether the optimizer updates parameters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "nn/activations.hpp"
#include "nn/matrix.hpp"
#include "nn/sparse.hpp"

namespace pelican::nn {

/// Time-major minibatch: seq[t] is the (batch x dim) input at timestep t.
using Sequence = std::vector<Matrix>;

/// Everything that decides a layer's infer() output, as raw words: its kind,
/// its shape and execution-mode words, and its weight buffers. Two layers
/// with equal content compute bit-identical infer() outputs, which is what
/// lets a serving engine keep one resident copy of identical layers. The
/// trainable flag is deliberately absent: it never changes an answer.
/// `blobs` view the layer's own buffers and are valid while it lives.
struct LayerContent {
  std::string kind;
  std::vector<std::uint64_t> shape;
  std::vector<std::span<const std::byte>> blobs;

  /// Hash over whole 64-bit words (four independent lanes, so hashing a
  /// ~100 KB model costs microseconds, not a byte-serial chain).
  [[nodiscard]] std::uint64_t hash() const noexcept;
  /// Total weight bytes.
  [[nodiscard]] std::size_t bytes() const noexcept;
  /// Bitwise equality of kind, shape and every blob.
  bool operator==(const LayerContent& other) const noexcept;
};

class SequenceLayer {
 public:
  virtual ~SequenceLayer() = default;

  /// Maps an input sequence to an output sequence of the same length.
  /// `training` toggles stochastic behavior (dropout).
  virtual Sequence forward(const Sequence& input, bool training) = 0;

  /// Sparse-input forward for one-hot encodings. The default densifies and
  /// delegates; layers with a real fast path (Lstm) override. Guaranteed
  /// bit-identical to forward(to_dense(input), training) — see
  /// nn/sparse.hpp for why — so callers may pick the encoding freely.
  virtual Sequence forward_sparse(const SparseSequence& input, bool training) {
    return forward(to_dense(input), training);
  }

  /// Inference forward: bit-identical to forward(input, /*training=*/false)
  /// but const — it writes no member (no backward cache), so concurrent
  /// callers may share one layer object. forward() runs the same step
  /// kernel with its cache writes switched on.
  [[nodiscard]] virtual Sequence infer(const Sequence& input) const = 0;

  /// Sparse-input infer(); same densify-and-delegate default and the same
  /// bit-identity guarantee as forward_sparse.
  [[nodiscard]] virtual Sequence infer_sparse(
      const SparseSequence& input) const {
    return infer(to_dense(input));
  }

  /// What decides infer()'s output (see LayerContent).
  [[nodiscard]] virtual LayerContent content() const = 0;

  /// Backpropagates through the most recent forward() call. Accumulates
  /// parameter gradients and returns gradients w.r.t. the layer input.
  virtual Sequence backward(const Sequence& grad_output) = 0;

  /// Trainable tensors, paired index-for-index with gradients().
  virtual std::vector<Matrix*> parameters() = 0;
  virtual std::vector<Matrix*> gradients() = 0;

  void zero_grad() {
    for (Matrix* g : gradients()) g->zero();
  }

  /// Selects the pointwise-activation execution mode (nn/activations.hpp)
  /// for layers that have one (Lstm, QuantizedLstm); a no-op elsewhere.
  /// kExact is every layer's default; kFastApprox is the opt-in
  /// bounded-error vectorized path.
  virtual void set_activation_mode(ActivationMode /*mode*/) noexcept {}

  /// Frozen layers still compute input gradients but are skipped by the
  /// optimizer (used by transfer-learning personalization, Fig. 1b/1c).
  void set_trainable(bool trainable) noexcept { trainable_ = trainable; }
  [[nodiscard]] bool trainable() const noexcept { return trainable_; }

  [[nodiscard]] virtual std::size_t input_dim() const = 0;
  [[nodiscard]] virtual std::size_t output_dim() const = 0;

  /// Deep copy, including weights; gradients and caches reset.
  [[nodiscard]] virtual std::unique_ptr<SequenceLayer> clone() const = 0;

  /// Stable type tag used by serialization ("lstm", "dropout").
  [[nodiscard]] virtual std::string kind() const = 0;

  virtual void save(BinaryWriter& writer) const = 0;

 private:
  bool trainable_ = true;
};

/// Reconstructs a layer written by SequenceLayer::save (dispatches on kind).
[[nodiscard]] std::unique_ptr<SequenceLayer> load_layer(BinaryReader& reader);

}  // namespace pelican::nn
