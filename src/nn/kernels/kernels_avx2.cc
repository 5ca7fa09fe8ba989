// AVX2 kernel backend. This TU is compiled with -mavx2 -mfma
// -ffp-contract=off (see src/nn/CMakeLists.txt) and is the only place —
// enforced by the raw-simd lint rule — where intrinsics may appear.
//
// Bitwise-parity rules (the whole point; see kernels.h):
//  - Vectorize only across independent output elements, never across a
//    reduction. The matmul SIMD axis is the output column j; each c[j]
//    still receives its kk-ordered sequence of `c[j] + aik*b[j]` updates.
//  - Separate _mm256_mul_ps + _mm256_add_ps everywhere — no FMA
//    intrinsics, and -ffp-contract=off stops the compiler introducing any.
//  - Transcendentals stay scalar std::exp/std::tanh.
//  - Squared L2 vectorizes across rows: each lane sums one row in
//    dimension order (see L2sqRowsAvx2).
//  - Softmax: the row max is vectorized (max is an exact selection, so
//    reassociation cannot change the value) and the final divide is
//    element-wise _mm256_div_ps; the exp+denominator loop stays scalar
//    and sequential.
// Tail elements (n % 8) run the scalar loop — elementwise kernels have no
// cross-lane interaction, so lane partitioning cannot change results. The
// DP kernels instead let their last step run into padded buffers (see
// AntiDiagonalDp).

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "nn/kernels/kernels.h"

namespace tmn::nn::kernels {

namespace {

void MatMulAvx2(const float* a, const float* b, float* c, int m, int k,
                int n) {
  const int n8 = n & ~7;
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float aik = a[static_cast<size_t>(i) * k + kk];
      if (aik == 0.0f) continue;
      const float* brow = &b[static_cast<size_t>(kk) * n];
      float* crow = &c[static_cast<size_t>(i) * n];
      const __m256 va = _mm256_set1_ps(aik);
      int j = 0;
      for (; j < n8; j += 8) {
        const __m256 vb = _mm256_loadu_ps(brow + j);
        const __m256 vc = _mm256_loadu_ps(crow + j);
        _mm256_storeu_ps(crow + j,
                         _mm256_add_ps(vc, _mm256_mul_ps(va, vb)));
      }
      for (; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void AddAvx2(const float* a, const float* b, float* o, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] + b[i];
}

void SubAvx2(const float* a, const float* b, float* o, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] - b[i];
}

void MulAvx2(const float* a, const float* b, float* o, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) o[i] = a[i] * b[i];
}

void AxpyAvx2(float alpha, const float* x, float* y, size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    const __m256 vx = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void MulAccAvx2(const float* a, const float* b, float* o, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vo = _mm256_loadu_ps(o + i);
    const __m256 prod =
        _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    _mm256_storeu_ps(o + i, _mm256_add_ps(vo, prod));
  }
  for (; i < n; ++i) o[i] += a[i] * b[i];
}

void ScaleAvx2(const float* a, float s, float* o, size_t n) {
  const __m256 vs = _mm256_set1_ps(s);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(o + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  }
  for (; i < n; ++i) o[i] = a[i] * s;
}

void AddRowVectorAvx2(const float* a, const float* row, float* o, int m,
                      int d) {
  const int d8 = d & ~7;
  for (int r = 0; r < m; ++r) {
    const float* arow = &a[static_cast<size_t>(r) * d];
    float* orow = &o[static_cast<size_t>(r) * d];
    int c = 0;
    for (; c < d8; c += 8) {
      _mm256_storeu_ps(orow + c, _mm256_add_ps(_mm256_loadu_ps(arow + c),
                                               _mm256_loadu_ps(row + c)));
    }
    for (; c < d; ++c) orow[c] = arow[c] + row[c];
  }
}

void LeakyReluAvx2(const float* a, float slope, float* o, size_t n) {
  const __m256 vs = _mm256_set1_ps(slope);
  const __m256 zero = _mm256_setzero_ps();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 va = _mm256_loadu_ps(a + i);
    const __m256 neg = _mm256_mul_ps(va, vs);
    const __m256 keep = _mm256_cmp_ps(va, zero, _CMP_GE_OQ);
    _mm256_storeu_ps(o + i, _mm256_blendv_ps(neg, va, keep));
  }
  for (; i < n; ++i) o[i] = a[i] >= 0.0f ? a[i] : slope * a[i];
}

void SoftmaxRowsAvx2(const float* a, float* o, int m, int n,
                     int valid_cols) {
  const int v8 = valid_cols & ~7;
  for (int i = 0; i < m; ++i) {
    const float* row = &a[static_cast<size_t>(i) * n];
    float* orow = &o[static_cast<size_t>(i) * n];
    // Row max: an exact selection, so lane partitioning cannot change the
    // value (and a ±0 sign difference is erased by exp(x - max)).
    float max_v = row[0];
    int j = 1;
    if (valid_cols >= 16) {
      __m256 vmax = _mm256_loadu_ps(row);
      for (j = 8; j + 8 <= valid_cols; j += 8) {
        vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(row + j));
      }
      alignas(32) float lanes[8];
      _mm256_store_ps(lanes, vmax);
      max_v = lanes[0];
      for (int l = 1; l < 8; ++l) max_v = std::max(max_v, lanes[l]);
    }
    for (; j < valid_cols; ++j) max_v = std::max(max_v, row[j]);
    // exp + denominator stay scalar-sequential (determinism contract).
    float denom = 0.0f;
    for (int c = 0; c < valid_cols; ++c) {
      orow[c] = std::exp(row[c] - max_v);
      denom += orow[c];
    }
    const __m256 vd = _mm256_set1_ps(denom);
    int c = 0;
    for (; c < v8; c += 8) {
      _mm256_storeu_ps(orow + c,
                       _mm256_div_ps(_mm256_loadu_ps(orow + c), vd));
    }
    for (; c < valid_cols; ++c) orow[c] /= denom;
  }
}

void LstmGatesAvx2(float* z, const float* c_prev, float* c_next,
                   float* h_next, int batch, int hidden) {
  const int h8 = hidden & ~7;
  for (int r = 0; r < batch; ++r) {
    float* zi = &z[static_cast<size_t>(r) * 4 * hidden];
    float* zf = zi + hidden;
    float* zg = zi + 2 * hidden;
    float* zo = zi + 3 * hidden;
    const float* c0 = &c_prev[static_cast<size_t>(r) * hidden];
    float* c1 = &c_next[static_cast<size_t>(r) * hidden];
    float* h1 = &h_next[static_cast<size_t>(r) * hidden];
    // Activations stay scalar: vector exp/tanh approximations would break
    // bitwise parity with the scalar backend.
    for (int j = 0; j < hidden; ++j) {
      zi[j] = 1.0f / (1.0f + std::exp(-zi[j]));
      zf[j] = 1.0f / (1.0f + std::exp(-zf[j]));
      zg[j] = std::tanh(zg[j]);
      zo[j] = 1.0f / (1.0f + std::exp(-zo[j]));
    }
    int j = 0;
    for (; j < h8; j += 8) {
      const __m256 fc =
          _mm256_mul_ps(_mm256_loadu_ps(zf + j), _mm256_loadu_ps(c0 + j));
      const __m256 ig =
          _mm256_mul_ps(_mm256_loadu_ps(zi + j), _mm256_loadu_ps(zg + j));
      _mm256_storeu_ps(c1 + j, _mm256_add_ps(fc, ig));
    }
    for (; j < hidden; ++j) {
      const float fc = zf[j] * c0[j];
      const float ig = zi[j] * zg[j];
      c1[j] = fc + ig;
    }
    for (j = 0; j < hidden; ++j) h1[j] = std::tanh(c1[j]);
    j = 0;
    for (; j < h8; j += 8) {
      _mm256_storeu_ps(h1 + j, _mm256_mul_ps(_mm256_loadu_ps(zo + j),
                                             _mm256_loadu_ps(h1 + j)));
    }
    for (; j < hidden; ++j) h1[j] = zo[j] * h1[j];
  }
}

// Cell rules of the exact-metric DPs. std::max(x, y) is (x < y) ? y : x,
// which is _mm256_max_pd(y, x) for every input, NaN and signed zeros
// included; likewise std::min(x, y) is _mm256_min_pd(y, x).
struct DtwCell {
  static constexpr double kOrigin = 0.0;
  // cost + min3
  static __m256d Apply(__m256d cost, __m256d min3) {
    return _mm256_add_pd(cost, min3);
  }
};

struct FrechetCell {
  static constexpr double kOrigin = -std::numeric_limits<double>::infinity();
  // std::max(min3, cost)
  static __m256d Apply(__m256d cost, __m256d min3) {
    return _mm256_max_pd(cost, min3);
  }
};

// The DP of kernels.h along anti-diagonals. Cell (i, j) needs (i, j-1) and
// (i-1, j) from anti-diagonal i+j-1 and (i-1, j-1) from i+j-2, so the
// cells of one anti-diagonal are independent and 4 go in one step. A
// diagonal is stored by i in one of three rotating buffers; `b` is copied
// reversed so that b[j-1] = b[k-i-1] also moves forward with i, and both
// operands load contiguously. Each cell computes the scalar loop's
// expression on the same operands, so the result is bit for bit the same.
//
// There is no scalar tail: the last step of a diagonal may run up to 3
// lanes past its end. Every buffer is kPad entries longer than the m or n
// it holds, so those lanes stay inside it, and no cell of a later diagonal
// reads what they wrote (cells hi+2 and up). Cells 0 and hi+1, the
// boundary that the next two diagonals read, are reset to inf after each
// diagonal.
template <typename Rule>
double AntiDiagonalDp(const double* a, size_t m, const double* b, size_t n) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr size_t kPad = 4;
  const size_t rows = m + kPad;
  const size_t cols = n + kPad;
  // ax, ay, bx, by, then the three diagonals.
  std::vector<double> buffer(5 * rows + 2 * cols, 0.0);
  double* ax = buffer.data();
  double* ay = ax + rows;
  double* bx = ay + rows;
  double* by = bx + cols;
  double* diag = by + cols;  // anti-diagonal k-2
  double* side = diag + rows;  // anti-diagonal k-1
  double* next = side + rows;  // anti-diagonal k
  for (size_t i = 0; i < m; ++i) {
    ax[i] = a[2 * i];
    ay[i] = a[2 * i + 1];
  }
  for (size_t j = 0; j < n; ++j) {
    bx[n - 1 - j] = b[2 * j];
    by[n - 1 - j] = b[2 * j + 1];
  }
  std::fill(diag, diag + 3 * rows, kInf);
  diag[0] = Rule::kOrigin;  // anti-diagonal 0; `side`, 1, is all boundary
  for (size_t k = 2; k <= m + n; ++k) {
    const size_t lo = k > n + 1 ? k - n : 1;
    const size_t hi = std::min(m, k - 1);
    for (size_t i = lo; i <= hi; i += 4) {
      const size_t r = n + i - k;  // b[k-i-1] in the reversed copy
      const __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(ax + i - 1),
                                       _mm256_loadu_pd(bx + r));
      const __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ay + i - 1),
                                       _mm256_loadu_pd(by + r));
      const __m256d cost = _mm256_sqrt_pd(
          _mm256_add_pd(_mm256_mul_pd(dx, dx), _mm256_mul_pd(dy, dy)));
      const __m256d left = _mm256_loadu_pd(side + i);
      const __m256d up = _mm256_loadu_pd(side + i - 1);
      const __m256d corner = _mm256_loadu_pd(diag + i - 1);
      // min(left, min(up, corner)), operands in the scalar loop's order.
      const __m256d min3 =
          _mm256_min_pd(_mm256_min_pd(corner, up), left);
      _mm256_storeu_pd(next + i, Rule::Apply(cost, min3));
    }
    next[0] = kInf;
    next[hi + 1] = kInf;
    double* spent = diag;
    diag = side;
    side = next;
    next = spent;
  }
  return side[m];
}

double DtwAvx2(const double* a, size_t m, const double* b, size_t n) {
  return AntiDiagonalDp<DtwCell>(a, m, b, n);
}

double FrechetAvx2(const double* a, size_t m, const double* b, size_t n) {
  return AntiDiagonalDp<FrechetCell>(a, m, b, n);
}

// Continues one row's squared-L2 chain over dimensions [from, dim), in
// the scalar loop's order and arithmetic.
float L2sqRowTail(const float* row, const float* q, size_t from, size_t dim,
                  float total) {
  for (size_t d = from; d < dim; ++d) {
    const float diff = row[d] - q[d];
    total += diff * diff;
  }
  return total;
}

// Transposes the 8×8 block in place: afterwards v[j] holds element j of
// the eight input rows, input row i in lane i.
void Transpose8x8(__m256 v[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(v[0], v[1]);
  const __m256 t1 = _mm256_unpackhi_ps(v[0], v[1]);
  const __m256 t2 = _mm256_unpacklo_ps(v[2], v[3]);
  const __m256 t3 = _mm256_unpackhi_ps(v[2], v[3]);
  const __m256 t4 = _mm256_unpacklo_ps(v[4], v[5]);
  const __m256 t5 = _mm256_unpackhi_ps(v[4], v[5]);
  const __m256 t6 = _mm256_unpacklo_ps(v[6], v[7]);
  const __m256 t7 = _mm256_unpackhi_ps(v[6], v[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  v[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  v[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  v[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  v[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  v[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  v[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  v[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  v[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

// Eight rows per step, one per lane, as the matmul vectorizes across
// output columns: an 8×8 block is loaded and transposed so that lane i
// holds row i's dimensions d..d+7 in turn, and each lane's sum takes them
// in dimension order. No gather: a vgatherdps variant gives the same bits
// but is slower (docs/KERNELS.md). The n % 8 rows and the dim % 8
// dimensions run the scalar loop per row.
void L2sqRowsAvx2(const float* const* rows, size_t n, const float* q,
                  size_t dim, float* out) {
  const size_t d8 = dim & ~size_t{7};
  size_t r = 0;
  for (; r + 8 <= n; r += 8) {
    const float* const* block = rows + r;
    __m256 acc = _mm256_setzero_ps();
    for (size_t d = 0; d < d8; d += 8) {
      __m256 v[8];
      for (int i = 0; i < 8; ++i) v[i] = _mm256_loadu_ps(block[i] + d);
      Transpose8x8(v);
      for (int j = 0; j < 8; ++j) {
        const __m256 diff = _mm256_sub_ps(v[j], _mm256_set1_ps(q[d + j]));
        acc = _mm256_add_ps(acc, _mm256_mul_ps(diff, diff));
      }
    }
    _mm256_storeu_ps(out + r, acc);
    if (d8 == dim) continue;
    for (size_t i = 0; i < 8; ++i) {
      out[r + i] = L2sqRowTail(block[i], q, d8, dim, out[r + i]);
    }
  }
  for (; r < n; ++r) out[r] = L2sqRowTail(rows[r], q, 0, dim, 0.0f);
}

constexpr KernelTable kAvx2Table = {
    MatMulAvx2,  AddAvx2,          SubAvx2,       MulAvx2,
    AxpyAvx2,    MulAccAvx2,       ScaleAvx2,     AddRowVectorAvx2,
    LeakyReluAvx2, SoftmaxRowsAvx2, LstmGatesAvx2, DtwAvx2,
    FrechetAvx2, L2sqRowsAvx2,
};

bool CpuHasAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

}  // namespace

const KernelTable* Avx2() {
  static const KernelTable* table = CpuHasAvx2() ? &kAvx2Table : nullptr;
  return table;
}

}  // namespace tmn::nn::kernels
