// Inference-only LSTM over int8-quantized weights (nn/quant.hpp): the
// serving-path counterpart of nn::Lstm, produced by quantize_for_serving()
// at model-publish time.
//
// Same recurrence, same [i f g o] gate layout, same fused gate pass
// (nn/activations.hpp — exact activations by default, fast mode opt-in);
// only the weight products differ: the input product gathers contiguous
// int8 panel rows per one-hot entry (dequant-free — see quant.hpp) and the
// recurrence accumulates fp32 activations against int8 weight rows a
// quarter the size of their fp32 originals.
//
// Inference-only is structural, not a convention: there is no forward
// cache, backward() throws, parameters()/gradients() are empty, and the
// layer constructs untrainable. Training always happens in fp32; a
// quantized artifact is what the store publishes for serving (ModelStore
// PublishFormat::kInt8).
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"
#include "nn/quant.hpp"

namespace pelican::nn {

class QuantizedLstm final : public SequenceLayer {
 public:
  QuantizedLstm() = default;

  /// Takes already-quantized gate weights (w_ih: 4H x I, w_hh: 4H x H, both
  /// with per-row scales) and the fp32 bias (1 x 4H — bias stays fp32: it
  /// is 4H floats total and feeds the fused gate pass directly).
  QuantizedLstm(QuantizedMatrix w_ih, QuantizedMatrix w_hh, Matrix bias);

  /// Both forwards are infer(): the layer has no cache to fill.
  Sequence forward(const Sequence& input, bool /*training*/) override {
    return infer(input);
  }
  Sequence forward_sparse(const SparseSequence& input,
                          bool /*training*/) override {
    return infer_sparse(input);
  }
  [[nodiscard]] Sequence infer(const Sequence& input) const override;
  [[nodiscard]] Sequence infer_sparse(
      const SparseSequence& input) const override;
  [[nodiscard]] LayerContent content() const override;

  /// Quantized layers are inference-only; the fp32 original is the
  /// trainable artifact.
  Sequence backward(const Sequence& grad_output) override;

  std::vector<Matrix*> parameters() override { return {}; }
  std::vector<Matrix*> gradients() override { return {}; }

  [[nodiscard]] std::size_t input_dim() const override {
    return w_ih_.cols();
  }
  [[nodiscard]] std::size_t output_dim() const override {
    return w_hh_.cols();
  }
  [[nodiscard]] std::size_t hidden_dim() const { return w_hh_.cols(); }

  [[nodiscard]] std::unique_ptr<SequenceLayer> clone() const override;
  [[nodiscard]] std::string kind() const override { return "qlstm"; }

  void set_activation_mode(ActivationMode mode) noexcept override {
    mode_ = mode;
  }
  [[nodiscard]] ActivationMode activation_mode() const noexcept {
    return mode_;
  }

  [[nodiscard]] const QuantizedMatrix& w_ih() const noexcept { return w_ih_; }
  [[nodiscard]] const QuantizedMatrix& w_hh() const noexcept { return w_hh_; }
  [[nodiscard]] const Matrix& bias() const noexcept { return bias_; }

  void save(BinaryWriter& writer) const override;
  static std::unique_ptr<QuantizedLstm> load(BinaryReader& reader);

 private:
  /// Shared recurrence body; `input_product` fills this timestep's
  /// pre-activation gates (dense int8 product or sparse panel gather).
  template <typename InputProduct>
  Sequence run_forward(std::size_t steps, std::size_t batch,
                       InputProduct&& input_product) const;

  QuantizedMatrix w_ih_;              // 4H x I, per-row scales
  QuantizedMatrix w_hh_;              // 4H x H, per-row scales
  // Transposed panels for the axpy kernels (quant.hpp), packed once at
  // construction — the weights are immutable — and never serialized:
  std::vector<std::int8_t> w_ih_t_;   // I x 4H (sparse gather + dense input)
  std::vector<std::int8_t> w_hh_t_;   // H x 4H (recurrence)
  Matrix bias_;                       // 1 x 4H, fp32
  ActivationMode mode_ = ActivationMode::kExact;
};

}  // namespace pelican::nn
