#include "nn/lstm.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "nn/kernels/arena.h"
#include "nn/kernels/kernels.h"
#include "nn/ops.h"
#include "obs/metrics.h"
#include "obs/scoped_timer.h"

namespace tmn::nn {

namespace {

// The no-tape inference forward: sequence i of the non-empty batch runs
// over the first steps[i] rows of inputs[i], one fused kernel pass per
// time step instead of ~12 tape ops. Reproduces the op-graph arithmetic
// of LstmCell::Step bit for bit:
//   z      = (x_t·wx + h·wh) + bias        (two matmuls, add, bias add)
//   gates  = kernels lstm_gates            (matches Sigmoid/Tanh + Add(Mul,Mul))
// Sequences are packed by descending length, so at step t exactly the
// first `active` packed rows are still running and every kernel call
// shrinks to that prefix. Every per-step kernel is row-independent and a
// finished row's state is never read again, so each sequence's output is
// what it would be alone, which is the tape loop's.
std::vector<Tensor> ForwardInference(const LstmCell& cell,
                                     const std::vector<Tensor>& inputs,
                                     const std::vector<int>& steps) {
  kernels::ArenaScope arena;
  const kernels::KernelTable& K = kernels::Active();
  const int batch = static_cast<int>(inputs.size());
  const int in = cell.input_size();
  const int h = cell.hidden_size();
  const int g4 = 4 * h;
  const auto& wx = cell.wx().data();
  const auto& wh = cell.wh().data();
  const auto& bias = cell.bias().data();
  // Packing order: longest first; stable on index so equal lengths keep
  // a deterministic order. order[s] is the input occupying packed row s.
  std::vector<int> order(inputs.size());
  for (int i = 0; i < batch; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](int a, int b) { return steps[a] > steps[b]; });
  const int max_len = steps[order[0]];
  const size_t bh = static_cast<size_t>(batch) * h;
  std::vector<float> xt(static_cast<size_t>(batch) * in);
  std::vector<float> zx(static_cast<size_t>(batch) * g4);
  std::vector<float> zh(static_cast<size_t>(batch) * g4);
  std::vector<float> z(static_cast<size_t>(batch) * g4);
  std::vector<float> hs(bh, 0.0f);
  std::vector<float> cs(bh, 0.0f);
  std::vector<float> h_next(bh);
  std::vector<float> c_next(bh);
  std::vector<std::vector<float>> out(inputs.size());
  for (int i = 0; i < batch; ++i) {
    out[i] = kernels::AcquireBuffer(static_cast<size_t>(steps[i]) * h);
  }
  int active = batch;
  for (int t = 0; t < max_len; ++t) {
    while (active > 0 && steps[order[active - 1]] <= t) --active;
    for (int s = 0; s < active; ++s) {
      std::copy_n(
          &inputs[order[s]].data()[static_cast<size_t>(t) * in], in,
          &xt[static_cast<size_t>(s) * in]);
    }
    const size_t ag4 = static_cast<size_t>(active) * g4;
    std::fill(zx.begin(), zx.begin() + ag4, 0.0f);
    std::fill(zh.begin(), zh.begin() + ag4, 0.0f);
    K.matmul(xt.data(), wx.data(), zx.data(), active, in, g4);
    K.matmul(hs.data(), wh.data(), zh.data(), active, h, g4);
    K.add(zx.data(), zh.data(), z.data(), ag4);
    K.add_row_vector(z.data(), bias.data(), z.data(), active, g4);
    K.lstm_gates(z.data(), cs.data(), c_next.data(), h_next.data(), active,
                 h);
    if (active == batch) {
      std::swap(hs, h_next);
      std::swap(cs, c_next);
    } else {
      // Finished rows sit past the live prefix and are never read again,
      // so only the prefix state advances.
      const size_t ah = static_cast<size_t>(active) * h;
      std::copy_n(h_next.data(), ah, hs.data());
      std::copy_n(c_next.data(), ah, cs.data());
    }
    for (int s = 0; s < active; ++s) {
      std::copy_n(&hs[static_cast<size_t>(s) * h], h,
                  &out[order[s]][static_cast<size_t>(t) * h]);
    }
  }
  std::vector<Tensor> result;
  result.reserve(inputs.size());
  for (int i = 0; i < batch; ++i) {
    result.push_back(Tensor::FromData(steps[i], h, std::move(out[i])));
  }
  return result;
}

}  // namespace

LstmCell::LstmCell(int input_size, int hidden_size, Rng& rng)
    : input_size_(input_size),
      hidden_size_(hidden_size),
      wx_(RegisterParameter(
          Tensor::XavierUniform(input_size, 4 * hidden_size, rng))),
      wh_(RegisterParameter(
          Tensor::XavierUniform(hidden_size, 4 * hidden_size, rng))),
      bias_(RegisterParameter(
          Tensor::Zeros(1, 4 * hidden_size, /*requires_grad=*/true))) {
  // Forget-gate bias = 1.
  for (int j = hidden_size; j < 2 * hidden_size; ++j) {
    bias_.data()[j] = 1.0f;
  }
}

LstmCell::State LstmCell::InitialState(int batch) const {
  return State{Tensor::Zeros(batch, hidden_size_),
               Tensor::Zeros(batch, hidden_size_)};
}

LstmCell::State LstmCell::Step(const Tensor& x, const State& state) const {
  TMN_CHECK(x.cols() == input_size_);
  // A state whose batch does not match x would otherwise only die three ops
  // downstream, inside Add() after both matmuls; fail at the entry point.
  TMN_DCHECK_MSG(
      state.h.rows() == x.rows() && state.h.cols() == hidden_size_,
      "LSTM state.h shape does not match step input batch / hidden size");
  TMN_DCHECK_MSG(
      state.c.rows() == x.rows() && state.c.cols() == hidden_size_,
      "LSTM state.c shape does not match step input batch / hidden size");
  const int h = hidden_size_;
  const Tensor z =
      AddRowVector(Add(MatMul(x, wx_), MatMul(state.h, wh_)), bias_);
  const Tensor i = Sigmoid(SliceCols(z, 0, h));
  const Tensor f = Sigmoid(SliceCols(z, h, h));
  const Tensor g = Tanh(SliceCols(z, 2 * h, h));
  const Tensor o = Sigmoid(SliceCols(z, 3 * h, h));
  const Tensor c_next = Add(Mul(f, state.c), Mul(i, g));
  const Tensor h_next = Mul(o, Tanh(c_next));
  return State{h_next, c_next};
}

Lstm::Lstm(int input_size, int hidden_size, Rng& rng)
    : cell_(input_size, hidden_size, rng) {
  RegisterChild(cell_);
}

Tensor Lstm::Forward(const Tensor& x, int steps) const {
  TMN_CHECK(steps >= 1 && steps <= x.rows());
  TMN_CHECK(x.cols() == cell_.input_size());
  if (!GradModeEnabled()) return ForwardInference(cell_, {x}, {steps})[0];
  LstmCell::State state = cell_.InitialState(/*batch=*/1);
  std::vector<Tensor> outputs;
  outputs.reserve(steps);
  for (int t = 0; t < steps; ++t) {
    state = cell_.Step(Row(x, t), state);
    outputs.push_back(state.h);
  }
  return StackRows(outputs);
}

std::vector<Tensor> Lstm::ForwardBatch(
    const std::vector<Tensor>& inputs) const {
  if (inputs.empty()) return {};
  if (GradModeEnabled()) {
    std::vector<Tensor> outputs;
    outputs.reserve(inputs.size());
    for (const Tensor& x : inputs) outputs.push_back(Forward(x));
    return outputs;
  }
  // kUnstable: in serving, batch composition depends on arrival timing,
  // so call/step counts do not reproduce across bench runs.
  static obs::Counter& calls = obs::Registry::Global().GetCounter(
      "tmn.nn.batched_lstm.calls", obs::Stability::kUnstable);
  static obs::Counter& total_steps = obs::Registry::Global().GetCounter(
      "tmn.nn.batched_lstm.steps", obs::Stability::kUnstable);
  // Steps where some sequence had already finished: a padded batch would
  // still compute them, the kernel shrinks to the live prefix instead.
  static obs::Counter& padded_steps = obs::Registry::Global().GetCounter(
      "tmn.nn.batched_lstm.padded_steps", obs::Stability::kUnstable);
  static obs::Histogram& seconds = obs::Registry::Global().GetTimer(
      "tmn.nn.batched_lstm.forward_seconds");
  obs::ScopedTimer timer(seconds);
  calls.Increment();
  std::vector<int> steps;
  steps.reserve(inputs.size());
  for (const Tensor& x : inputs) {
    TMN_CHECK(x.rows() >= 1 && x.cols() == cell_.input_size());
    steps.push_back(x.rows());
  }
  const auto [shortest, longest] =
      std::minmax_element(steps.begin(), steps.end());
  total_steps.Increment(static_cast<uint64_t>(*longest));
  padded_steps.Increment(static_cast<uint64_t>(*longest - *shortest));
  return ForwardInference(cell_, inputs, steps);
}

}  // namespace tmn::nn
