#ifndef TMN_NN_LSTM_H_
#define TMN_NN_LSTM_H_

#include <utility>
#include <vector>

#include "nn/module.h"
#include "nn/rng.h"
#include "nn/tensor.h"

namespace tmn::nn {

// Single LSTM cell with the standard gate layout [i, f, g, o] packed into
// one (in + hidden) x 4*hidden weight pair. Forget-gate bias initialized
// to 1 (common practice; helps gradients early in training).
class LstmCell : public Module {
 public:
  LstmCell(int input_size, int hidden_size, Rng& rng);

  struct State {
    Tensor h;  // (B x hidden)
    Tensor c;  // (B x hidden)
  };

  // Zero initial state for batch size B.
  State InitialState(int batch = 1) const;

  // One time step: consumes x_t (B x in) and the previous state.
  State Step(const Tensor& x, const State& state) const;

  int input_size() const { return input_size_; }
  int hidden_size() const { return hidden_size_; }

  // Raw parameter access for the no-tape inference kernel (lstm.cc).
  // Layout: wx (in x 4h), wh (h x 4h), bias (1 x 4h), gate order
  // [i, f, g, o].
  const Tensor& wx() const { return wx_; }
  const Tensor& wh() const { return wh_; }
  const Tensor& bias() const { return bias_; }

 private:
  int input_size_;
  int hidden_size_;
  Tensor wx_;  // (in x 4h)
  Tensor wh_;  // (h x 4h)
  Tensor bias_;  // (1 x 4h)
};

// Unidirectional LSTM over a whole sequence. Forward consumes the first
// `steps` rows of X (the true, unpadded trajectory length) and returns the
// (steps x hidden) matrix Z of per-time-step outputs (Eq. 12): row t is
// the representation of the length-(t+1) prefix, and the last row is the
// representation of the whole sequence.
//
// Under grad mode Forward records the cell's ops on the tape, step by
// step; that loop is the training path and the reference. Without grad
// both Forward and ForwardBatch run one fused no-tape kernel whose output
// is bitwise that of the tape loop, a single sequence being a batch of
// one (verified by tests/batched_lstm_test.cc).
class Lstm : public Module {
 public:
  Lstm(int input_size, int hidden_size, Rng& rng);

  Tensor Forward(const Tensor& x, int steps) const;
  Tensor Forward(const Tensor& x) const { return Forward(x, x.rows()); }

  // Forward(inputs[i]) for every i, as one (len_i x hidden) matrix each;
  // an empty batch returns empty. The paper batches sequences on a GPU
  // by padding them to a common length and masking finished rows
  // (Section IV.B). Without grad the kernel instead packs the batch
  // longest first and, at each step, runs only the sequences still going,
  // so the per-step matmuls amortize across the batch with no padded
  // compute. Under grad each sequence runs the tape loop on its own.
  std::vector<Tensor> ForwardBatch(const std::vector<Tensor>& inputs) const;

  const LstmCell& cell() const { return cell_; }

 private:
  LstmCell cell_;
};

}  // namespace tmn::nn

#endif  // TMN_NN_LSTM_H_
