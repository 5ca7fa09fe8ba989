#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "nn/lstm.h"

namespace tmn::nn {
namespace {

// Hidden sizes around the 8-lane AVX2 width: 1, 5 and 9 leave a partial
// tail in every gate slice, 8 fills whole lanes, 33 adds one element to
// four full vectors.
constexpr int kHiddenSizes[] = {1, 5, 8, 9, 33};

Tensor RandomSequence(int len, int dim, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> data(static_cast<size_t>(len) * dim);
  for (float& v : data) v = static_cast<float>(rng.Uniform(-1.0, 1.0));
  return Tensor::FromData(len, dim, std::move(data));
}

// The bit patterns of a tensor's data: exact equality that also tells
// -0.0f from 0.0f.
std::vector<uint32_t> Bits(const Tensor& t) {
  std::vector<uint32_t> bits(t.data().size());
  std::memcpy(bits.data(), t.data().data(), bits.size() * sizeof(float));
  return bits;
}

// The no-tape batch kernel against the reference it must reproduce bit
// for bit: grad-mode Lstm::Forward on each sequence alone.
void ExpectBatchMatchesTape(const Lstm& lstm,
                            const std::vector<Tensor>& inputs) {
  std::vector<Tensor> batched;
  {
    NoGradGuard no_grad;
    batched = lstm.ForwardBatch(inputs);
  }
  ASSERT_EQ(batched.size(), inputs.size());
  for (size_t i = 0; i < inputs.size(); ++i) {
    const Tensor expected = lstm.Forward(inputs[i]);
    ASSERT_EQ(batched[i].rows(), inputs[i].rows()) << "sequence " << i;
    ASSERT_EQ(batched[i].cols(), expected.cols()) << "sequence " << i;
    EXPECT_EQ(Bits(batched[i]), Bits(expected)) << "sequence " << i;
  }
}

TEST(BatchedLstmTest, EqualLengthBatchMatchesSequential) {
  for (int hidden : kHiddenSizes) {
    SCOPED_TRACE(hidden);
    Rng rng(1);
    Lstm lstm(3, hidden, rng);
    ExpectBatchMatchesTape(lstm, {RandomSequence(5, 3, 10),
                                  RandomSequence(5, 3, 11),
                                  RandomSequence(5, 3, 12)});
  }
}

TEST(BatchedLstmTest, VariableLengthBatchMatchesSequential) {
  // Ragged, unsorted, with a 1-step sequence: the packed kernel drops
  // rows from its live prefix at three different steps.
  for (int hidden : kHiddenSizes) {
    SCOPED_TRACE(hidden);
    Rng rng(2);
    Lstm lstm(2, hidden, rng);
    ExpectBatchMatchesTape(lstm, {RandomSequence(7, 2, 20),
                                  RandomSequence(3, 2, 21),
                                  RandomSequence(1, 2, 22),
                                  RandomSequence(5, 2, 23),
                                  RandomSequence(7, 2, 24)});
  }
}

TEST(BatchedLstmTest, SingleSequenceBatch) {
  for (int hidden : kHiddenSizes) {
    SCOPED_TRACE(hidden);
    Rng rng(3);
    Lstm lstm(2, hidden, rng);
    ExpectBatchMatchesTape(lstm, {RandomSequence(4, 2, 30)});
  }
}

TEST(BatchedLstmTest, PrefixStepsMatchTape) {
  // Forward(x, steps) with steps < rows, the route the padded pair
  // forward takes: the rows past `steps` must not be read.
  for (int hidden : kHiddenSizes) {
    SCOPED_TRACE(hidden);
    Rng rng(4);
    Lstm lstm(3, hidden, rng);
    const Tensor x = RandomSequence(6, 3, 40);
    for (int steps = 1; steps <= x.rows(); ++steps) {
      SCOPED_TRACE(steps);
      const Tensor tape = lstm.Forward(x, steps);
      NoGradGuard no_grad;
      const Tensor fused = lstm.Forward(x, steps);
      ASSERT_EQ(fused.rows(), steps);
      EXPECT_EQ(Bits(fused), Bits(tape));
    }
  }
}

}  // namespace
}  // namespace tmn::nn
