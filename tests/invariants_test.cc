// Death tests for the debug-mode invariant layer (TMN_DCHECK /
// TMN_DCHECK_FINITE in src/common/check.h).
//
// This test target is always compiled with TMN_ENABLE_DCHECKS (set in
// tests/CMakeLists.txt), so the macro-level tests run in every build. The
// library-level tests additionally require the *library* to have been
// built with dchecks (a Debug build or -DTMN_DCHECKS=ON); they skip
// otherwise, and the dcheck lane runs them against a Debug build.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/check.h"
#include "nn/lstm.h"
#include "nn/ops.h"
#include "nn/rng.h"
#include "nn/tensor.h"

namespace {

using tmn::common::DChecksEnabled;
using tmn::nn::Add;
using tmn::nn::Div;
using tmn::nn::LstmCell;
using tmn::nn::Rng;
using tmn::nn::Tensor;

// --- Macro level (always active in this TU). -------------------------------

TEST(DcheckMacroTest, PassingConditionIsSilent) {
  TMN_DCHECK(1 + 1 == 2);
  TMN_DCHECK_MSG(true, "never printed");
  TMN_DCHECK_FINITE(0.5f, "finite value");
}

TEST(DcheckMacroDeathTest, FailingDcheckAborts) {
  EXPECT_DEATH(TMN_DCHECK(1 == 2), "TMN_DCHECK failed");
}

TEST(DcheckMacroDeathTest, FailingDcheckMsgAborts) {
  EXPECT_DEATH(TMN_DCHECK_MSG(false, "shape story"),
               "TMN_DCHECK failed.*shape story");
}

TEST(DcheckMacroDeathTest, NanAborts) {
  const float nan = std::nanf("");
  EXPECT_DEATH(TMN_DCHECK_FINITE(nan, "loss"),
               "TMN_DCHECK_FINITE failed.*loss");
}

TEST(DcheckMacroDeathTest, InfinityAborts) {
  const float inf = HUGE_VALF;
  EXPECT_DEATH(TMN_DCHECK_FINITE(inf, "loss"),
               "TMN_DCHECK_FINITE failed.*loss");
}

// --- Library level (requires a dcheck-enabled library build). --------------

TEST(InvariantLayerTest, LibraryBuildStateIsQueryable) {
  // Smoke: the flag is compiled into the library, whichever way it is set.
  const bool enabled = DChecksEnabled();
  EXPECT_TRUE(enabled || !enabled);
}

// Hard TMN_CHECKs guard obvious shape mismatches in every build type.
TEST(InvariantLayerDeathTest, MismatchedShapeOpInputAborts) {
  const Tensor a = Tensor::Zeros(2, 2);
  const Tensor b = Tensor::Zeros(3, 3);
  EXPECT_DEATH(Add(a, b), "shape mismatch");
}

// A tensor whose data vector was resized out from under its shape is only
// caught by the TMN_DCHECK well-formedness layer.
TEST(InvariantLayerDeathTest, MalformedTensorDataAborts) {
  if (!DChecksEnabled()) {
    GTEST_SKIP() << "library built without TMN_DCHECKS";
  }
  Tensor a = Tensor::Zeros(2, 2);
  a.data().resize(2);  // Breaks the rows*cols == data.size() invariant.
  const Tensor b = Tensor::Zeros(2, 2);
  EXPECT_DEATH(Add(a, b), "TMN_DCHECK failed.*malformed tensor");
}

// An LSTM state whose batch does not match the step input would otherwise
// die three ops downstream (inside Add after both matmuls); the dcheck
// pins the failure to LstmCell::Step itself.
TEST(InvariantLayerDeathTest, LstmStateBatchMismatchAbortsAtStep) {
  if (!DChecksEnabled()) {
    GTEST_SKIP() << "library built without TMN_DCHECKS";
  }
  Rng rng(7);
  LstmCell cell(/*input_size=*/3, /*hidden_size=*/4, rng);
  const Tensor x = Tensor::Zeros(2, 3);                 // batch 2
  const LstmCell::State state = cell.InitialState(3);   // batch 3
  EXPECT_DEATH(cell.Step(x, state), "TMN_DCHECK failed.*state\\.h");
}

// NaN loss is caught at the graph boundary (Backward entry), not after it
// has poisoned every parameter gradient.
TEST(InvariantLayerDeathTest, NanLossAbortsAtBackward) {
  if (!DChecksEnabled()) {
    GTEST_SKIP() << "library built without TMN_DCHECKS";
  }
  const Tensor zero = Tensor::Scalar(0.0f, /*requires_grad=*/true);
  Tensor loss = Div(zero, Tensor::Scalar(0.0f));  // 0/0 = NaN
  ASSERT_TRUE(std::isnan(loss.item()));
  EXPECT_DEATH(loss.Backward(), "TMN_DCHECK_FINITE failed.*loss");
}

// A healthy training-shaped graph passes every invariant.
TEST(InvariantLayerTest, WellFormedGraphBackwardSucceeds) {
  Rng rng(11);
  LstmCell cell(/*input_size=*/3, /*hidden_size=*/4, rng);
  const Tensor x = Tensor::FromData(2, 3, {0.1f, 0.2f, 0.3f,  //
                                           0.4f, 0.5f, 0.6f});
  const LstmCell::State s1 = cell.Step(x, cell.InitialState(2));
  const LstmCell::State s2 = cell.Step(x, s1);
  Tensor loss = tmn::nn::Mean(tmn::nn::Square(s2.h));
  EXPECT_TRUE(std::isfinite(loss.item()));
  loss.Backward();  // Must not trip any dcheck.
  for (const Tensor& p : cell.parameters()) {
    for (float g : p.grad()) EXPECT_TRUE(std::isfinite(g));
  }
}

}  // namespace
