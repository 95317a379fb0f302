#include "nn/quant_lstm.hpp"

#include <stdexcept>
#include <utility>

#include "nn/activations.hpp"

namespace pelican::nn {

QuantizedLstm::QuantizedLstm(QuantizedMatrix w_ih, QuantizedMatrix w_hh,
                             Matrix bias)
    : w_ih_(std::move(w_ih)), w_hh_(std::move(w_hh)), bias_(std::move(bias)) {
  if (w_ih_.rows() != w_hh_.rows() || w_ih_.rows() != 4 * w_hh_.cols() ||
      bias_.rows() != 1 || bias_.cols() != w_ih_.rows()) {
    throw std::invalid_argument("QuantizedLstm: inconsistent gate shapes");
  }
  w_ih_t_ = transposed_values(w_ih_);
  w_hh_t_ = transposed_values(w_hh_);
  set_trainable(false);
}

template <typename InputProduct>
Sequence QuantizedLstm::run_forward(std::size_t steps, std::size_t batch,
                                    InputProduct&& input_product) const {
  const std::size_t hidden = hidden_dim();
  Sequence output(steps);

  Matrix h_prev(batch, hidden, 0.0f);
  Matrix c_prev(batch, hidden, 0.0f);
  Matrix c_next(batch, hidden);
  Matrix tanh_c(batch, hidden);  // scratch: nothing caches it (no backward)
  Matrix gates;

  const float* bias = bias_.row(0).data();
  for (std::size_t t = 0; t < steps; ++t) {
    input_product(t, gates);
    qmatmul_pre_t(h_prev, w_hh_t_, w_hh_.scales(), gates,
                  /*accumulate=*/true);

    Matrix h_next(batch, hidden);
    for (std::size_t r = 0; r < batch; ++r) {
      lstm_gate_pass(gates.data() + r * 4 * hidden, bias,
                     c_prev.data() + r * hidden, c_next.data() + r * hidden,
                     tanh_c.data() + r * hidden, h_next.data() + r * hidden,
                     hidden, mode_);
    }
    std::swap(c_prev, c_next);
    h_prev = h_next;
    output[t] = std::move(h_next);
  }
  return output;
}

Sequence QuantizedLstm::infer(const Sequence& input) const {
  if (input.empty()) {
    throw std::invalid_argument("QuantizedLstm::forward: empty input");
  }
  const std::size_t batch = input[0].rows();
  return run_forward(input.size(), batch, [&](std::size_t t, Matrix& gates) {
    const Matrix& x = input[t];
    if (x.cols() != input_dim() || x.rows() != batch) {
      throw std::invalid_argument("QuantizedLstm::forward: shape mismatch");
    }
    qmatmul_pre_t(x, w_ih_t_, w_ih_.scales(), gates);
  });
}

Sequence QuantizedLstm::infer_sparse(const SparseSequence& input) const {
  if (input.empty()) {
    throw std::invalid_argument("QuantizedLstm::forward_sparse: empty input");
  }
  const std::size_t batch = input[0].rows();
  return run_forward(input.size(), batch, [&](std::size_t t, Matrix& gates) {
    const SparseRows& x = input[t];
    if (x.cols() != input_dim() || x.rows() != batch) {
      throw std::invalid_argument(
          "QuantizedLstm::forward_sparse: shape mismatch");
    }
    sparse_qmatmul_pre_t(x, w_ih_t_, w_ih_.scales(), gates);
  });
}

LayerContent QuantizedLstm::content() const {
  // The transposed panels derive from the values, so the key skips them.
  return {kind(),
          {input_dim(), hidden_dim(), static_cast<std::uint64_t>(mode_)},
          {std::as_bytes(w_ih_.values()), std::as_bytes(w_ih_.scales()),
           std::as_bytes(w_hh_.values()), std::as_bytes(w_hh_.scales()),
           std::as_bytes(bias_.flat())}};
}

Sequence QuantizedLstm::backward(const Sequence& /*grad_output*/) {
  throw std::logic_error(
      "QuantizedLstm::backward: quantized layers are inference-only; train "
      "the fp32 original and re-publish");
}

std::unique_ptr<SequenceLayer> QuantizedLstm::clone() const {
  auto copy = std::make_unique<QuantizedLstm>(w_ih_, w_hh_, bias_);
  copy->mode_ = mode_;
  return copy;
}

void QuantizedLstm::save(BinaryWriter& writer) const {
  writer.write_string(kind());
  w_ih_.save(writer);
  w_hh_.save(writer);
  writer.write_f32_span(bias_.flat());
}

std::unique_ptr<QuantizedLstm> QuantizedLstm::load(BinaryReader& reader) {
  QuantizedMatrix w_ih = QuantizedMatrix::load(reader);
  QuantizedMatrix w_hh = QuantizedMatrix::load(reader);
  Matrix bias(1, w_ih.rows());
  const auto b = reader.read_f32_vector();
  if (b.size() != bias.size()) {
    throw SerializeError("QuantizedLstm::load: bias size mismatch");
  }
  std::copy(b.begin(), b.end(), bias.data());
  return std::make_unique<QuantizedLstm>(std::move(w_ih), std::move(w_hh),
                                         std::move(bias));
}

}  // namespace pelican::nn
