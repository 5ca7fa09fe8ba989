#include "nn/rnn.h"

#include "common/check.h"

namespace tmn::nn {

std::string RnnName(RnnKind kind) {
  switch (kind) {
    case RnnKind::kLstm:
      return "LSTM";
    case RnnKind::kGru:
      return "GRU";
  }
  return "unknown";
}

Rnn::Rnn(RnnKind kind, int input_size, int hidden_size, Rng& rng)
    : kind_(kind) {
  switch (kind_) {
    case RnnKind::kLstm:
      lstm_ = std::make_unique<Lstm>(input_size, hidden_size, rng);
      RegisterChild(*lstm_);
      break;
    case RnnKind::kGru:
      gru_ = std::make_unique<Gru>(input_size, hidden_size, rng);
      RegisterChild(*gru_);
      break;
  }
}

Tensor Rnn::Forward(const Tensor& x, int steps) const {
  if (lstm_ != nullptr) return lstm_->Forward(x, steps);
  TMN_CHECK(gru_ != nullptr);
  return gru_->Forward(x, steps);
}

std::vector<Tensor> Rnn::ForwardBatch(
    const std::vector<Tensor>& inputs) const {
  if (lstm_ != nullptr) return lstm_->ForwardBatch(inputs);
  TMN_CHECK(gru_ != nullptr);
  std::vector<Tensor> outputs;
  outputs.reserve(inputs.size());
  for (const Tensor& x : inputs) outputs.push_back(gru_->Forward(x));
  return outputs;
}

}  // namespace tmn::nn
