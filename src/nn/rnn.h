#ifndef TMN_NN_RNN_H_
#define TMN_NN_RNN_H_

#include <memory>
#include <string>
#include <vector>

#include "nn/gru.h"
#include "nn/lstm.h"
#include "nn/module.h"

namespace tmn::nn {

// Which gated recurrent cell a model uses. The paper builds on LSTM; GRU
// is provided for the RNN-backbone ablation.
enum class RnnKind {
  kLstm,
  kGru,
};

std::string RnnName(RnnKind kind);

// Uniform sequence-encoder facade over Lstm/Gru: Forward(x, steps) returns
// the (steps x hidden) matrix of per-time-step outputs.
class Rnn : public Module {
 public:
  Rnn(RnnKind kind, int input_size, int hidden_size, Rng& rng);

  Tensor Forward(const Tensor& x, int steps) const;
  Tensor Forward(const Tensor& x) const { return Forward(x, x.rows()); }

  // Forward(inputs[i]) for every i. An LSTM runs the batch through
  // Lstm::ForwardBatch; a GRU runs each sequence on its own.
  std::vector<Tensor> ForwardBatch(const std::vector<Tensor>& inputs) const;

  RnnKind kind() const { return kind_; }

 private:
  RnnKind kind_;
  std::unique_ptr<Lstm> lstm_;
  std::unique_ptr<Gru> gru_;
};

}  // namespace tmn::nn

#endif  // TMN_NN_RNN_H_
