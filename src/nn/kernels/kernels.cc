#include "nn/kernels/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

namespace tmn::nn::kernels {

namespace {

// ---------------------------------------------------------------------------
// Portable scalar baseline. These loops define the numeric contract: every
// other backend must reproduce them bit-for-bit (see kernels.h).
// ---------------------------------------------------------------------------

void MatMulScalar(const float* a, const float* b, float* c, int m, int k,
                  int n) {
  // i-k-j loop order: streams through b and c rows (cache friendly).
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float aik = a[static_cast<size_t>(i) * k + kk];
      if (aik == 0.0f) continue;
      const float* brow = &b[static_cast<size_t>(kk) * n];
      float* crow = &c[static_cast<size_t>(i) * n];
      for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void AddScalar(const float* a, const float* b, float* o, size_t n) {
  for (size_t i = 0; i < n; ++i) o[i] = a[i] + b[i];
}

void SubScalar(const float* a, const float* b, float* o, size_t n) {
  for (size_t i = 0; i < n; ++i) o[i] = a[i] - b[i];
}

void MulScalarKernel(const float* a, const float* b, float* o, size_t n) {
  for (size_t i = 0; i < n; ++i) o[i] = a[i] * b[i];
}

void AxpyScalar(float alpha, const float* x, float* y, size_t n) {
  for (size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void MulAccScalar(const float* a, const float* b, float* o, size_t n) {
  for (size_t i = 0; i < n; ++i) o[i] += a[i] * b[i];
}

void ScaleScalar(const float* a, float s, float* o, size_t n) {
  for (size_t i = 0; i < n; ++i) o[i] = a[i] * s;
}

void AddRowVectorScalar(const float* a, const float* row, float* o, int m,
                        int d) {
  for (int r = 0; r < m; ++r) {
    const float* arow = &a[static_cast<size_t>(r) * d];
    float* orow = &o[static_cast<size_t>(r) * d];
    for (int c = 0; c < d; ++c) orow[c] = arow[c] + row[c];
  }
}

void LeakyReluScalar(const float* a, float slope, float* o, size_t n) {
  for (size_t i = 0; i < n; ++i) o[i] = a[i] >= 0.0f ? a[i] : slope * a[i];
}

void SoftmaxRowsScalar(const float* a, float* o, int m, int n,
                       int valid_cols) {
  for (int i = 0; i < m; ++i) {
    const float* row = &a[static_cast<size_t>(i) * n];
    float* orow = &o[static_cast<size_t>(i) * n];
    float max_v = row[0];
    for (int j = 1; j < valid_cols; ++j) max_v = std::max(max_v, row[j]);
    float denom = 0.0f;
    for (int j = 0; j < valid_cols; ++j) {
      orow[j] = std::exp(row[j] - max_v);
      denom += orow[j];
    }
    for (int j = 0; j < valid_cols; ++j) orow[j] /= denom;
    // Columns >= valid_cols stay exactly 0 (masked padding).
  }
}

void LstmGatesScalar(float* z, const float* c_prev, float* c_next,
                     float* h_next, int batch, int hidden) {
  const int g4 = 4 * hidden;
  for (int r = 0; r < batch; ++r) {
    float* zi = &z[static_cast<size_t>(r) * g4];
    float* zf = zi + hidden;
    float* zg = zi + 2 * hidden;
    float* zo = zi + 3 * hidden;
    const float* c0 = &c_prev[static_cast<size_t>(r) * hidden];
    float* c1 = &c_next[static_cast<size_t>(r) * hidden];
    float* h1 = &h_next[static_cast<size_t>(r) * hidden];
    for (int j = 0; j < hidden; ++j) {
      zi[j] = 1.0f / (1.0f + std::exp(-zi[j]));
      zf[j] = 1.0f / (1.0f + std::exp(-zf[j]));
      zg[j] = std::tanh(zg[j]);
      zo[j] = 1.0f / (1.0f + std::exp(-zo[j]));
    }
    for (int j = 0; j < hidden; ++j) {
      const float fc = zf[j] * c0[j];
      const float ig = zi[j] * zg[j];
      c1[j] = fc + ig;
    }
    for (int j = 0; j < hidden; ++j) {
      h1[j] = zo[j] * std::tanh(c1[j]);
    }
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();

// Distance between the (x, y) points at p and q: geo::EuclideanDistance's
// arithmetic on plain doubles.
double PointDistance(const double* p, const double* q) {
  const double dx = p[0] - q[0];
  const double dy = p[1] - q[1];
  return std::sqrt(dx * dx + dy * dy);
}

double DtwScalar(const double* a, size_t m, const double* b, size_t n) {
  // Rolling one-row DP: dp[j] holds DTW cost of a[..i] vs b[..j]. The cell
  // to the left, dp[i][j-1], stays in `left` instead of being reloaded from
  // curr[j - 1], and min(prev[j], prev[j-1]) does not depend on it, so each
  // cell waits only on one min and one add of its predecessor.
  std::vector<double> prev(n + 1, kInf);
  std::vector<double> curr(n + 1, kInf);
  prev[0] = 0.0;
  for (size_t i = 1; i <= m; ++i) {
    const double* p = a + 2 * (i - 1);
    double left = kInf;
    curr[0] = left;
    for (size_t j = 1; j <= n; ++j) {
      const double cost = PointDistance(p, b + 2 * (j - 1));
      left = cost + std::min(left, std::min(prev[j], prev[j - 1]));
      curr[j] = left;
    }
    std::swap(prev, curr);
  }
  return prev[n];
}

double FrechetScalar(const double* a, size_t m, const double* b, size_t n) {
  // dp[j] = discrete Fréchet of a[..i] vs b[..j]; rolling rows. As in DTW,
  // the cell to the left stays in `left` and min(prev[j], prev[j-1]) is
  // formed off the loop-carried chain. Row 0 and column 0 take the max
  // along their one path, which is what the inf boundary gives.
  std::vector<double> prev(n, 0.0);
  std::vector<double> curr(n, 0.0);
  double left = PointDistance(a, b);
  prev[0] = left;
  for (size_t j = 1; j < n; ++j) {
    left = std::max(left, PointDistance(a, b + 2 * j));
    prev[j] = left;
  }
  for (size_t i = 1; i < m; ++i) {
    const double* p = a + 2 * i;
    left = std::max(prev[0], PointDistance(p, b));
    curr[0] = left;
    for (size_t j = 1; j < n; ++j) {
      const double d = PointDistance(p, b + 2 * j);
      left = std::max(std::min(left, std::min(prev[j], prev[j - 1])), d);
      curr[j] = left;
    }
    std::swap(prev, curr);
  }
  return prev[n - 1];
}

void L2sqRowsScalar(const float* const* rows, size_t n, const float* q,
                    size_t dim, float* out) {
  for (size_t r = 0; r < n; ++r) {
    const float* row = rows[r];
    float total = 0.0f;
    for (size_t d = 0; d < dim; ++d) {
      const float diff = row[d] - q[d];
      total += diff * diff;
    }
    out[r] = total;
  }
}

constexpr KernelTable kScalarTable = {
    MatMulScalar,    AddScalar,        SubScalar,
    MulScalarKernel, AxpyScalar,       MulAccScalar,
    ScaleScalar,     AddRowVectorScalar, LeakyReluScalar,
    SoftmaxRowsScalar, LstmGatesScalar, DtwScalar,
    FrechetScalar,   L2sqRowsScalar,
};

Backend SelectBackend() {
  const char* env = std::getenv("TMN_KERNELS");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) {
    return Backend::kScalar;
  }
  const bool requested_avx2 =
      env != nullptr && std::strcmp(env, "avx2") == 0;
  if (env != nullptr && !requested_avx2) {
    std::fprintf(stderr,
                 "tmn: unknown TMN_KERNELS value '%s'; using auto-detect\n",
                 env);
  }
  if (Avx2() != nullptr) return Backend::kAvx2;
  if (requested_avx2) {
    std::fprintf(stderr,
                 "tmn: TMN_KERNELS=avx2 requested but AVX2 is unavailable "
                 "on this build/CPU; falling back to scalar kernels\n");
  }
  return Backend::kScalar;
}

}  // namespace

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const KernelTable& Scalar() { return kScalarTable; }

#if !defined(TMN_HAVE_AVX2)
const KernelTable* Avx2() { return nullptr; }
#endif

Backend ActiveBackend() {
  static const Backend backend = SelectBackend();
  return backend;
}

const KernelTable& Active() {
  static const KernelTable& table =
      ActiveBackend() == Backend::kAvx2 ? *Avx2() : Scalar();
  return table;
}

}  // namespace tmn::nn::kernels
