#ifndef TMN_NN_OPS_H_
#define TMN_NN_OPS_H_

#include <vector>

#include "nn/tensor.h"

namespace tmn::nn {

// Differentiable operations on 2-D tensors. Each op computes its value
// eagerly and (when grad mode is on and an input participates in the
// graph) records a backward closure on the output node.
//
// Shape conventions: m x d matrices; scalars are 1x1; row vectors 1 x d.

// --- Elementwise (same shape) -------------------------------------------
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);

// --- Broadcasting -------------------------------------------------------
// (m x d) + (1 x d): adds the row vector to every row (bias add).
Tensor AddRowVector(const Tensor& matrix, const Tensor& row);
// Scales every element by a constant.
Tensor MulScalar(const Tensor& a, double s);
// Adds a constant to every element.
Tensor AddConst(const Tensor& a, double s);

// --- Linear algebra -----------------------------------------------------
// (m x k) * (k x n) -> (m x n).
Tensor MatMul(const Tensor& a, const Tensor& b);
Tensor Transpose(const Tensor& a);

// --- Nonlinearities ------------------------------------------------------
// The paper's sigma: x if x >= 0 else slope * x (Eq. 5, slope 0.1).
Tensor LeakyRelu(const Tensor& a, double slope = 0.1);
Tensor Relu(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Square(const Tensor& a);
// sqrt(x + eps); eps keeps the gradient finite at 0.
Tensor Sqrt(const Tensor& a, double eps = 0.0);

// --- Softmax / masking ---------------------------------------------------
// Row-wise softmax over all columns.
Tensor SoftmaxRows(const Tensor& a);
// Row-wise softmax where only columns [0, valid_cols) participate; the
// masked columns get probability exactly 0 (Eq. 7 with padding masks).
Tensor SoftmaxRowsMasked(const Tensor& a, int valid_cols);
// Zeroes every row with index >= valid_rows (the paper's padding mask:
// "the results of the padded points are covered by zeros").
Tensor ZeroRowsBeyond(const Tensor& a, int valid_rows);

// --- Shape ops -----------------------------------------------------------
// Horizontal concatenation: (m x d1) ++ (m x d2) -> m x (d1 + d2).
Tensor ConcatCols(const Tensor& a, const Tensor& b);
// Stacks k row vectors (each 1 x d) into a k x d matrix.
Tensor StackRows(const std::vector<Tensor>& rows);
// Row i as a 1 x d tensor.
Tensor Row(const Tensor& a, int i);
// Columns [start, start + len) as an m x len tensor.
Tensor SliceCols(const Tensor& a, int start, int len);

// Multiplies every element of `a` by the (learnable) 1x1 tensor `s`.
Tensor ScaleByScalar(const Tensor& a, const Tensor& s);
// Repeats a 1 x d row vector m times into an m x d matrix.
Tensor TileRows(const Tensor& row, int m);

// --- Reductions ----------------------------------------------------------
Tensor Sum(const Tensor& a);
Tensor Mean(const Tensor& a);
// Column-wise mean: (m x d) -> (1 x d).
Tensor MeanRows(const Tensor& a);

// --- Composites used by the models ---------------------------------------
// Euclidean distance between two same-shape tensors, as a scalar:
// sqrt(sum((a - b)^2) + eps). This is the predicted-similarity head
// g(o_a, o_b) = ||o_a - o_b|| (Section IV.B).
Tensor EuclideanDistance(const Tensor& a, const Tensor& b,
                         double eps = 1e-10);

// sum_i weights[i] * scalars[i], as a scalar tensor.
Tensor WeightedSumScalars(const std::vector<Tensor>& scalars,
                          const std::vector<double>& weights);

}  // namespace tmn::nn

#endif  // TMN_NN_OPS_H_
