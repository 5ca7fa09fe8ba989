#ifndef TMN_NN_KERNELS_KERNELS_H_
#define TMN_NN_KERNELS_KERNELS_H_

#include <cstddef>

namespace tmn::nn::kernels {

// Runtime-dispatched compute kernels: the nn engine's dense float math and
// the exact-metric DPs of src/distance.
//
// Two implementations of one table: a portable scalar baseline
// (kernels.cc) and an AVX2 variant (kernels_avx2.cc, compiled with -mavx2
// in its own TU). The active table is chosen exactly once per process:
// the TMN_KERNELS environment variable ("scalar" or "avx2") wins, else
// cpuid picks AVX2 when the CPU supports it, else scalar.
//
// Determinism contract — every kernel, in every backend, produces
// BITWISE-IDENTICAL results to the historical scalar loops in ops.cc and
// src/distance:
//  - Reductions keep the original sequential accumulation order. The AVX2
//    matmul vectorizes across output columns (j), never across the
//    reduction dimension (k), and performs separate mul+add (no FMA; the
//    TU is compiled with -ffp-contract=off).
//  - The i-k-j matmul skips aik == 0.0f contributions, exactly like the
//    scalar loop (adding aik*b with aik == 0 could flip signed zeros).
//  - Transcendentals stay std::exp / std::tanh — no vector approximations.
//  - Softmax keeps its sequential denominator; AVX2 only vectorizes the
//    row max (an exact selection) and the final element-wise divide.
//  - The DP kernels may visit cells in another order (AVX2 walks
//    anti-diagonals), but each cell keeps its operands and arithmetic.
//  - Squared L2 vectorizes across rows, never across a row's dimensions:
//    each AVX2 lane carries one row's sum in dimension order.
// Consequently scalar-vs-AVX2 parity holds bit-for-bit (enforced by
// tests/kernels_test.cc over odd/unaligned shapes), and results are
// independent of thread count. See docs/KERNELS.md.

enum class Backend {
  kScalar,
  kAvx2,
};

const char* BackendName(Backend backend);

// The nn entries take dense row-major float32 matrices and vectors; the DP
// entries take point sequences as float64 (x, y) pairs.
struct KernelTable {
  // c += a·b for a (m×k), b (k×n), c (m×n). `c` must be pre-zeroed (or
  // hold a partial sum to accumulate onto). i-k-j order, aik==0 skip.
  void (*matmul)(const float* a, const float* b, float* c, int m, int k,
                 int n);
  // o[i] = a[i] (+,-,*) b[i]. `o` may alias `a` and/or `b`.
  void (*add)(const float* a, const float* b, float* o, size_t n);
  void (*sub)(const float* a, const float* b, float* o, size_t n);
  void (*mul)(const float* a, const float* b, float* o, size_t n);
  // y[i] += alpha * x[i] (separate mul and add; alpha in {1,-1} is exact).
  void (*axpy)(float alpha, const float* x, float* y, size_t n);
  // o[i] += a[i] * b[i] (separate mul and add — no FMA contraction).
  void (*mul_acc)(const float* a, const float* b, float* o, size_t n);
  // o[i] = a[i] * s.
  void (*scale)(const float* a, float s, float* o, size_t n);
  // o[r][c] = a[r][c] + row[c] for a (m×d). `o` may alias `a`.
  void (*add_row_vector)(const float* a, const float* row, float* o, int m,
                         int d);
  // o[i] = a[i] >= 0 ? a[i] : slope * a[i].
  void (*leaky_relu)(const float* a, float slope, float* o, size_t n);
  // Row-wise softmax over the first valid_cols columns of a (m×n); o must
  // be pre-zeroed so the masked columns >= valid_cols stay exactly 0.
  void (*softmax_rows)(const float* a, float* o, int m, int n,
                       int valid_cols);
  // Fused LSTM gate block for a (batch×4h) preactivation z laid out
  // [i, f, g, o]. Applies sigmoid/sigmoid/tanh/sigmoid in place, then
  //   c_next = f*c_prev + i*g   (per element: mul, mul, add)
  //   h_next = o * tanh(c_next)
  // matching the op-graph Add(Mul,Mul) / Mul(o,Tanh(c)) rounding exactly.
  void (*lstm_gates)(float* z, const float* c_prev, float* c_next,
                     float* h_next, int batch, int hidden);
  // Exact trajectory DPs of `a` (m points) against `b` (n points), m and
  // n >= 1, each point an interleaved (x, y) pair. Cell (i, j) of the
  // (m+1)×(n+1) table takes cost = sqrt(dx*dx + dy*dy) with dx = a.x - b.x
  // and dy = a.y - b.y of points i-1 and j-1, and
  // min3 = min(left, min(up, diag)) of its three predecessors, then
  //   dtw:     cost + min3         (DTW)
  //   frechet: max(min3, cost)     (discrete Fréchet)
  // Row and column 0 hold inf, except cell (0, 0): 0 for dtw, -inf for
  // frechet. The result is cell (m, n). For coordinates that give no NaN
  // every backend returns the same bits.
  double (*dtw)(const double* a, size_t m, const double* b, size_t n);
  double (*frechet)(const double* a, size_t m, const double* b, size_t n);
  // Squared L2 of n rows against one query, each row and the query `dim`
  // floats: out[r] = Σ_d (rows[r][d] − q[d])². Each row's sum runs in
  // dimension order from 0.0f, with a separate sub, mul and add per
  // dimension. Rows are a pointer array, so contiguous rows and scattered
  // ones (graph neighbours) go through the same entry; pointers may
  // repeat and need no alignment.
  void (*l2sq_rows)(const float* const* rows, size_t n, const float* q,
                    size_t dim, float* out);
};

// The process-wide active table (selected once, thread-safe).
const KernelTable& Active();
Backend ActiveBackend();

// Explicit backends for parity tests. Avx2() is nullptr when the build
// or the CPU lacks AVX2 support.
const KernelTable& Scalar();
const KernelTable* Avx2();

}  // namespace tmn::nn::kernels

#endif  // TMN_NN_KERNELS_KERNELS_H_
