#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels/arena.h"
#include "nn/kernels/kernels.h"

namespace tmn::nn {

namespace {

using ImplPtr = std::shared_ptr<TensorImpl>;

// Forward loops (and the order-insensitive backward loops) run on the
// process-selected kernel backend; reductions that define accumulation
// order stay as explicit scalar loops. See src/nn/kernels/kernels.h for
// the bitwise-parity contract.
const kernels::KernelTable& K() { return kernels::Active(); }

// A node participates in the autograd graph if it is a leaf that requires
// grad or an interior node with a recorded backward function.
bool InGraph(const ImplPtr& impl) {
  return impl->requires_grad || impl->backward_fn != nullptr;
}

// Debug-only: a tensor whose data vector no longer matches its declared
// shape (e.g. resized through the mutable data() accessor) turns every op
// that touches it into an out-of-bounds access; catch it at the op that
// received it instead of in a downstream loop.
void DCheckWellFormed(const Tensor& t) {
  TMN_DCHECK_MSG(
      t.data().size() == static_cast<size_t>(t.rows()) * t.cols(),
      "malformed tensor: data size does not match rows*cols");
}

// Creates the output node for an op. `backward_builder` is invoked (only
// when the tape should record) with the raw output pointer and must return
// the backward closure. The closure may capture parent shared_ptrs — the
// output owns the closure, so capturing the output itself must be by raw
// pointer to avoid a reference cycle.
template <typename BackwardBuilder>
Tensor MakeOp(int rows, int cols, std::vector<float> data,
              std::vector<ImplPtr> parents, BackwardBuilder backward_builder) {
  TMN_DCHECK_MSG(data.size() == static_cast<size_t>(rows) * cols,
                 "op produced a data buffer inconsistent with its shape");
  auto impl = std::make_shared<TensorImpl>();
  impl->rows = rows;
  impl->cols = cols;
  impl->data = std::move(data);
  bool record = GradModeEnabled();
  if (record) {
    record = false;
    for (const ImplPtr& p : parents) {
      if (InGraph(p)) {
        record = true;
        break;
      }
    }
  }
  if (record) {
    impl->parents = std::move(parents);
    impl->backward_fn = backward_builder(impl.get());
  }
  return Tensor(std::move(impl));
}

void CheckSameShape(const Tensor& a, const Tensor& b) {
  TMN_CHECK_MSG(a.rows() == b.rows() && a.cols() == b.cols(),
                "shape mismatch");
  DCheckWellFormed(a);
  DCheckWellFormed(b);
}

}  // namespace

Tensor Add(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  const auto& av = a.data();
  const auto& bv = b.data();
  std::vector<float> out = kernels::AcquireBuffer(av.size());
  K().add(av.data(), bv.data(), out.data(), av.size());
  ImplPtr pa = a.impl(), pb = b.impl();
  return MakeOp(a.rows(), a.cols(), std::move(out), {pa, pb},
                [pa, pb](TensorImpl* o) {
                  return [pa, pb, o]() {
                    if (InGraph(pa)) {
                      std::vector<float>& ga = GradBufferFor(pa.get());
                      K().axpy(1.0f, o->grad.data(), ga.data(),
                               o->grad.size());
                    }
                    if (InGraph(pb)) {
                      std::vector<float>& gb = GradBufferFor(pb.get());
                      K().axpy(1.0f, o->grad.data(), gb.data(),
                               o->grad.size());
                    }
                  };
                });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  const auto& av = a.data();
  const auto& bv = b.data();
  std::vector<float> out = kernels::AcquireBuffer(av.size());
  K().sub(av.data(), bv.data(), out.data(), av.size());
  ImplPtr pa = a.impl(), pb = b.impl();
  return MakeOp(a.rows(), a.cols(), std::move(out), {pa, pb},
                [pa, pb](TensorImpl* o) {
                  return [pa, pb, o]() {
                    if (InGraph(pa)) {
                      std::vector<float>& ga = GradBufferFor(pa.get());
                      K().axpy(1.0f, o->grad.data(), ga.data(),
                               o->grad.size());
                    }
                    if (InGraph(pb)) {
                      std::vector<float>& gb = GradBufferFor(pb.get());
                      K().axpy(-1.0f, o->grad.data(), gb.data(),
                               o->grad.size());
                    }
                  };
                });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  const auto& av = a.data();
  const auto& bv = b.data();
  std::vector<float> out = kernels::AcquireBuffer(av.size());
  K().mul(av.data(), bv.data(), out.data(), av.size());
  ImplPtr pa = a.impl(), pb = b.impl();
  return MakeOp(a.rows(), a.cols(), std::move(out), {pa, pb},
                [pa, pb](TensorImpl* o) {
                  return [pa, pb, o]() {
                    if (InGraph(pa)) {
                      std::vector<float>& ga = GradBufferFor(pa.get());
                      K().mul_acc(o->grad.data(), pb->data.data(), ga.data(),
                                  o->grad.size());
                    }
                    if (InGraph(pb)) {
                      std::vector<float>& gb = GradBufferFor(pb.get());
                      K().mul_acc(o->grad.data(), pa->data.data(), gb.data(),
                                  o->grad.size());
                    }
                  };
                });
}

Tensor Div(const Tensor& a, const Tensor& b) {
  CheckSameShape(a, b);
  const auto& av = a.data();
  const auto& bv = b.data();
  std::vector<float> out = kernels::AcquireBuffer(av.size());
  for (size_t i = 0; i < av.size(); ++i) out[i] = av[i] / bv[i];
  ImplPtr pa = a.impl(), pb = b.impl();
  return MakeOp(a.rows(), a.cols(), std::move(out), {pa, pb},
                [pa, pb](TensorImpl* o) {
                  return [pa, pb, o]() {
                    if (InGraph(pa)) {
                      std::vector<float>& ga = GradBufferFor(pa.get());
                      for (size_t i = 0; i < o->grad.size(); ++i)
                        ga[i] += o->grad[i] / pb->data[i];
                    }
                    if (InGraph(pb)) {
                      std::vector<float>& gb = GradBufferFor(pb.get());
                      for (size_t i = 0; i < o->grad.size(); ++i)
                        gb[i] -= o->grad[i] * pa->data[i] /
                                 (pb->data[i] * pb->data[i]);
                    }
                  };
                });
}

Tensor AddRowVector(const Tensor& matrix, const Tensor& row) {
  TMN_CHECK(row.rows() == 1 && row.cols() == matrix.cols());
  const int m = matrix.rows();
  const int d = matrix.cols();
  const auto& mv = matrix.data();
  const auto& rv = row.data();
  std::vector<float> out = kernels::AcquireBuffer(mv.size());
  K().add_row_vector(mv.data(), rv.data(), out.data(), m, d);
  ImplPtr pm = matrix.impl(), pr = row.impl();
  return MakeOp(m, d, std::move(out), {pm, pr},
                [pm, pr, m, d](TensorImpl* o) {
                  return [pm, pr, o, m, d]() {
                    if (InGraph(pm)) {
                      std::vector<float>& gm = GradBufferFor(pm.get());
                      K().axpy(1.0f, o->grad.data(), gm.data(),
                               o->grad.size());
                    }
                    if (InGraph(pr)) {
                      std::vector<float>& gr = GradBufferFor(pr.get());
                      for (int r = 0; r < m; ++r) {
                        for (int c = 0; c < d; ++c) {
                          gr[c] += o->grad[static_cast<size_t>(r) * d + c];
                        }
                      }
                    }
                  };
                });
}

Tensor MulScalar(const Tensor& a, double s) {
  const auto& av = a.data();
  std::vector<float> out = kernels::AcquireBuffer(av.size());
  const float fs = static_cast<float>(s);
  K().scale(av.data(), fs, out.data(), av.size());
  ImplPtr pa = a.impl();
  return MakeOp(a.rows(), a.cols(), std::move(out), {pa},
                [pa, fs](TensorImpl* o) {
                  return [pa, o, fs]() {
                    if (!InGraph(pa)) return;
                    std::vector<float>& ga = GradBufferFor(pa.get());
                    K().axpy(fs, o->grad.data(), ga.data(), o->grad.size());
                  };
                });
}

Tensor AddConst(const Tensor& a, double s) {
  const auto& av = a.data();
  std::vector<float> out = kernels::AcquireBuffer(av.size());
  const float fs = static_cast<float>(s);
  for (size_t i = 0; i < av.size(); ++i) out[i] = av[i] + fs;
  ImplPtr pa = a.impl();
  return MakeOp(a.rows(), a.cols(), std::move(out), {pa},
                [pa](TensorImpl* o) {
                  return [pa, o]() {
                    if (!InGraph(pa)) return;
                    std::vector<float>& ga = GradBufferFor(pa.get());
                    K().axpy(1.0f, o->grad.data(), ga.data(),
                             o->grad.size());
                  };
                });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  TMN_CHECK_MSG(a.cols() == b.rows(), "matmul inner-dim mismatch");
  DCheckWellFormed(a);
  DCheckWellFormed(b);
  const int m = a.rows();
  const int k = a.cols();
  const int n = b.cols();
  const auto& av = a.data();
  const auto& bv = b.data();
  std::vector<float> out =
      kernels::AcquireZeroed(static_cast<size_t>(m) * n);
  K().matmul(av.data(), bv.data(), out.data(), m, k, n);
  ImplPtr pa = a.impl(), pb = b.impl();
  return MakeOp(
      m, n, std::move(out), {pa, pb}, [pa, pb, m, k, n](TensorImpl* o) {
        return [pa, pb, o, m, k, n]() {
          // dA = dO * B^T ; dB = A^T * dO.
          if (InGraph(pa)) {
            std::vector<float>& ga = GradBufferFor(pa.get());
            // Each ga entry is a dot product over n: a reduction whose
            // sequential order is part of the determinism contract, so it
            // stays a scalar loop.
            for (int i = 0; i < m; ++i) {
              const float* gorow = &o->grad[static_cast<size_t>(i) * n];
              float* garow = &ga[static_cast<size_t>(i) * k];
              for (int kk = 0; kk < k; ++kk) {
                const float* brow = &pb->data[static_cast<size_t>(kk) * n];
                float acc = 0.0f;
                for (int j = 0; j < n; ++j) acc += gorow[j] * brow[j];
                garow[kk] += acc;
              }
            }
          }
          if (InGraph(pb)) {
            std::vector<float>& gb = GradBufferFor(pb.get());
            for (int kk = 0; kk < k; ++kk) {
              float* gbrow = &gb[static_cast<size_t>(kk) * n];
              for (int i = 0; i < m; ++i) {
                const float aik = pa->data[static_cast<size_t>(i) * k + kk];
                if (aik == 0.0f) continue;
                const float* gorow = &o->grad[static_cast<size_t>(i) * n];
                K().axpy(aik, gorow, gbrow, static_cast<size_t>(n));
              }
            }
          }
        };
      });
}

Tensor Transpose(const Tensor& a) {
  const int m = a.rows();
  const int n = a.cols();
  const auto& av = a.data();
  std::vector<float> out = kernels::AcquireBuffer(av.size());
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      out[static_cast<size_t>(j) * m + i] = av[static_cast<size_t>(i) * n + j];
    }
  }
  ImplPtr pa = a.impl();
  return MakeOp(n, m, std::move(out), {pa}, [pa, m, n](TensorImpl* o) {
    return [pa, o, m, n]() {
      if (!InGraph(pa)) return;
      std::vector<float>& ga = GradBufferFor(pa.get());
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < n; ++j) {
          ga[static_cast<size_t>(i) * n + j] +=
              o->grad[static_cast<size_t>(j) * m + i];
        }
      }
    };
  });
}

namespace {

// Shared scaffold for elementwise unary ops. dfn receives (x, y) — the
// input and output values — and returns dy/dx.
template <typename F, typename DF>
Tensor UnaryOp(const Tensor& a, F fn, DF dfn) {
  DCheckWellFormed(a);
  const auto& av = a.data();
  std::vector<float> out = kernels::AcquireBuffer(av.size());
  for (size_t i = 0; i < av.size(); ++i) out[i] = fn(av[i]);
  ImplPtr pa = a.impl();
  return MakeOp(a.rows(), a.cols(), std::move(out), {pa},
                [pa, dfn](TensorImpl* o) {
                  return [pa, o, dfn]() {
                    if (!InGraph(pa)) return;
                    std::vector<float>& ga = GradBufferFor(pa.get());
                    for (size_t i = 0; i < o->grad.size(); ++i) {
                      ga[i] += o->grad[i] * dfn(pa->data[i], o->data[i]);
                    }
                  };
                });
}

}  // namespace

Tensor LeakyRelu(const Tensor& a, double slope) {
  DCheckWellFormed(a);
  const float s = static_cast<float>(slope);
  const auto& av = a.data();
  std::vector<float> out = kernels::AcquireBuffer(av.size());
  K().leaky_relu(av.data(), s, out.data(), av.size());
  ImplPtr pa = a.impl();
  return MakeOp(a.rows(), a.cols(), std::move(out), {pa},
                [pa, s](TensorImpl* o) {
                  return [pa, o, s]() {
                    if (!InGraph(pa)) return;
                    std::vector<float>& ga = GradBufferFor(pa.get());
                    for (size_t i = 0; i < o->grad.size(); ++i) {
                      ga[i] +=
                          o->grad[i] * (pa->data[i] >= 0.0f ? 1.0f : s);
                    }
                  };
                });
}

Tensor Relu(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x > 0.0f ? x : 0.0f; },
      [](float x, float) { return x > 0.0f ? 1.0f : 0.0f; });
}

Tensor Sigmoid(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return 1.0f / (1.0f + std::exp(-x)); },
      [](float, float y) { return y * (1.0f - y); });
}

Tensor Tanh(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::tanh(x); },
      [](float, float y) { return 1.0f - y * y; });
}

Tensor Exp(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return std::exp(x); },
      [](float, float y) { return y; });
}

Tensor Square(const Tensor& a) {
  return UnaryOp(
      a, [](float x) { return x * x; },
      [](float x, float) { return 2.0f * x; });
}

Tensor Sqrt(const Tensor& a, double eps) {
  const float e = static_cast<float>(eps);
  return UnaryOp(
      a, [e](float x) { return std::sqrt(x + e); },
      [](float, float y) { return y > 0.0f ? 0.5f / y : 0.0f; });
}

namespace {

Tensor SoftmaxImpl(const Tensor& a, int valid_cols) {
  const int m = a.rows();
  const int n = a.cols();
  TMN_CHECK(valid_cols >= 1 && valid_cols <= n);
  const auto& av = a.data();
  std::vector<float> out = kernels::AcquireZeroed(av.size());
  K().softmax_rows(av.data(), out.data(), m, n, valid_cols);
  ImplPtr pa = a.impl();
  return MakeOp(m, n, std::move(out), {pa},
                [pa, m, n, valid_cols](TensorImpl* o) {
                  return [pa, o, m, n, valid_cols]() {
                    if (!InGraph(pa)) return;
                    std::vector<float>& ga = GradBufferFor(pa.get());
                    // dx_j = y_j * (dy_j - sum_k dy_k y_k), per row.
                    for (int i = 0; i < m; ++i) {
                      const float* y = &o->data[static_cast<size_t>(i) * n];
                      const float* gy = &o->grad[static_cast<size_t>(i) * n];
                      float* gx = &ga[static_cast<size_t>(i) * n];
                      float dot = 0.0f;
                      for (int j = 0; j < valid_cols; ++j) dot += gy[j] * y[j];
                      for (int j = 0; j < valid_cols; ++j) {
                        gx[j] += y[j] * (gy[j] - dot);
                      }
                    }
                  };
                });
}

}  // namespace

Tensor SoftmaxRows(const Tensor& a) { return SoftmaxImpl(a, a.cols()); }

Tensor SoftmaxRowsMasked(const Tensor& a, int valid_cols) {
  return SoftmaxImpl(a, valid_cols);
}

Tensor ZeroRowsBeyond(const Tensor& a, int valid_rows) {
  TMN_CHECK(valid_rows >= 0 && valid_rows <= a.rows());
  const int m = a.rows();
  const int d = a.cols();
  const auto& av = a.data();
  std::vector<float> out = kernels::AcquireBuffer(av.size());
  const size_t keep = static_cast<size_t>(valid_rows) * d;
  std::copy_n(av.data(), keep, out.data());
  std::fill(out.begin() + keep, out.end(), 0.0f);
  ImplPtr pa = a.impl();
  return MakeOp(m, d, std::move(out), {pa},
                [pa, valid_rows, d](TensorImpl* o) {
                  return [pa, o, valid_rows, d]() {
                    if (!InGraph(pa)) return;
                    std::vector<float>& ga = GradBufferFor(pa.get());
                    const size_t limit =
                        static_cast<size_t>(valid_rows) * d;
                    K().axpy(1.0f, o->grad.data(), ga.data(), limit);
                  };
                });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  TMN_CHECK(a.rows() == b.rows());
  const int m = a.rows();
  const int d1 = a.cols();
  const int d2 = b.cols();
  const auto& av = a.data();
  const auto& bv = b.data();
  std::vector<float> out =
      kernels::AcquireBuffer(static_cast<size_t>(m) * (d1 + d2));
  for (int i = 0; i < m; ++i) {
    std::copy_n(&av[static_cast<size_t>(i) * d1], d1,
                &out[static_cast<size_t>(i) * (d1 + d2)]);
    std::copy_n(&bv[static_cast<size_t>(i) * d2], d2,
                &out[static_cast<size_t>(i) * (d1 + d2) + d1]);
  }
  ImplPtr pa = a.impl(), pb = b.impl();
  return MakeOp(m, d1 + d2, std::move(out), {pa, pb},
                [pa, pb, m, d1, d2](TensorImpl* o) {
                  return [pa, pb, o, m, d1, d2]() {
                    const int d = d1 + d2;
                    if (InGraph(pa)) {
                      std::vector<float>& ga = GradBufferFor(pa.get());
                      for (int i = 0; i < m; ++i) {
                        K().axpy(1.0f, &o->grad[static_cast<size_t>(i) * d],
                                 &ga[static_cast<size_t>(i) * d1],
                                 static_cast<size_t>(d1));
                      }
                    }
                    if (InGraph(pb)) {
                      std::vector<float>& gb = GradBufferFor(pb.get());
                      for (int i = 0; i < m; ++i) {
                        K().axpy(
                            1.0f, &o->grad[static_cast<size_t>(i) * d + d1],
                            &gb[static_cast<size_t>(i) * d2],
                            static_cast<size_t>(d2));
                      }
                    }
                  };
                });
}

Tensor StackRows(const std::vector<Tensor>& rows) {
  TMN_CHECK(!rows.empty());
  const int d = rows[0].cols();
  const int m = static_cast<int>(rows.size());
  std::vector<float> out =
      kernels::AcquireBuffer(static_cast<size_t>(m) * d);
  std::vector<ImplPtr> parents;
  parents.reserve(rows.size());
  for (int i = 0; i < m; ++i) {
    TMN_CHECK(rows[i].rows() == 1 && rows[i].cols() == d);
    std::copy_n(rows[i].data().data(), d, &out[static_cast<size_t>(i) * d]);
    parents.push_back(rows[i].impl());
  }
  std::vector<ImplPtr> captured = parents;
  return MakeOp(m, d, std::move(out), std::move(parents),
                [captured, d](TensorImpl* o) {
                  return [captured, o, d]() {
                    for (size_t i = 0; i < captured.size(); ++i) {
                      const ImplPtr& p = captured[i];
                      if (!InGraph(p)) continue;
                      std::vector<float>& gp = GradBufferFor(p.get());
                      K().axpy(1.0f, &o->grad[i * d], gp.data(),
                               static_cast<size_t>(d));
                    }
                  };
                });
}

Tensor Row(const Tensor& a, int i) {
  TMN_CHECK(i >= 0 && i < a.rows());
  const int d = a.cols();
  std::vector<float> out = kernels::AcquireBuffer(static_cast<size_t>(d));
  std::copy_n(a.data().data() + static_cast<size_t>(i) * d, d, out.data());
  ImplPtr pa = a.impl();
  return MakeOp(1, d, std::move(out), {pa}, [pa, i, d](TensorImpl* o) {
    return [pa, o, i, d]() {
      if (!InGraph(pa)) return;
      std::vector<float>& ga = GradBufferFor(pa.get());
      K().axpy(1.0f, o->grad.data(), &ga[static_cast<size_t>(i) * d],
               static_cast<size_t>(d));
    };
  });
}

Tensor SliceCols(const Tensor& a, int start, int len) {
  TMN_CHECK(start >= 0 && len > 0 && start + len <= a.cols());
  const int m = a.rows();
  const int n = a.cols();
  const auto& av = a.data();
  std::vector<float> out =
      kernels::AcquireBuffer(static_cast<size_t>(m) * len);
  for (int i = 0; i < m; ++i) {
    std::copy_n(&av[static_cast<size_t>(i) * n + start], len,
                &out[static_cast<size_t>(i) * len]);
  }
  ImplPtr pa = a.impl();
  return MakeOp(m, len, std::move(out), {pa},
                [pa, m, n, start, len](TensorImpl* o) {
                  return [pa, o, m, n, start, len]() {
                    if (!InGraph(pa)) return;
                    std::vector<float>& ga = GradBufferFor(pa.get());
                    for (int i = 0; i < m; ++i) {
                      K().axpy(1.0f,
                               &o->grad[static_cast<size_t>(i) * len],
                               &ga[static_cast<size_t>(i) * n + start],
                               static_cast<size_t>(len));
                    }
                  };
                });
}

Tensor ScaleByScalar(const Tensor& a, const Tensor& s) {
  TMN_CHECK(s.numel() == 1);
  const auto& av = a.data();
  const float sv = s.data()[0];
  std::vector<float> out = kernels::AcquireBuffer(av.size());
  K().scale(av.data(), sv, out.data(), av.size());
  ImplPtr pa = a.impl(), ps = s.impl();
  return MakeOp(a.rows(), a.cols(), std::move(out), {pa, ps},
                [pa, ps](TensorImpl* o) {
                  return [pa, ps, o]() {
                    if (InGraph(pa)) {
                      std::vector<float>& ga = GradBufferFor(pa.get());
                      const float sv = ps->data[0];
                      K().axpy(sv, o->grad.data(), ga.data(),
                               o->grad.size());
                    }
                    if (InGraph(ps)) {
                      std::vector<float>& gs = GradBufferFor(ps.get());
                      float acc = 0.0f;
                      for (size_t i = 0; i < o->grad.size(); ++i)
                        acc += o->grad[i] * pa->data[i];
                      gs[0] += acc;
                    }
                  };
                });
}

Tensor TileRows(const Tensor& row, int m) {
  TMN_CHECK(row.rows() == 1 && m >= 1);
  const int d = row.cols();
  const auto& rv = row.data();
  std::vector<float> out =
      kernels::AcquireBuffer(static_cast<size_t>(m) * d);
  for (int i = 0; i < m; ++i) {
    std::copy_n(rv.data(), d, &out[static_cast<size_t>(i) * d]);
  }
  ImplPtr pr = row.impl();
  return MakeOp(m, d, std::move(out), {pr}, [pr, m, d](TensorImpl* o) {
    return [pr, o, m, d]() {
      if (!InGraph(pr)) return;
      std::vector<float>& gr = GradBufferFor(pr.get());
      for (int i = 0; i < m; ++i) {
        K().axpy(1.0f, &o->grad[static_cast<size_t>(i) * d], gr.data(),
                 static_cast<size_t>(d));
      }
    };
  });
}

Tensor Sum(const Tensor& a) {
  const auto& av = a.data();
  float total = 0.0f;
  for (float v : av) total += v;
  ImplPtr pa = a.impl();
  return MakeOp(1, 1, {total}, {pa}, [pa](TensorImpl* o) {
    return [pa, o]() {
      if (!InGraph(pa)) return;
      std::vector<float>& ga = GradBufferFor(pa.get());
      for (float& g : ga) g += o->grad[0];
    };
  });
}

Tensor Mean(const Tensor& a) {
  return MulScalar(Sum(a), 1.0 / a.numel());
}

Tensor MeanRows(const Tensor& a) {
  const int m = a.rows();
  const int d = a.cols();
  const auto& av = a.data();
  std::vector<float> out = kernels::AcquireZeroed(static_cast<size_t>(d));
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < d; ++j) out[j] += av[static_cast<size_t>(i) * d + j];
  }
  const float inv = 1.0f / static_cast<float>(m);
  for (float& v : out) v *= inv;
  ImplPtr pa = a.impl();
  return MakeOp(1, d, std::move(out), {pa}, [pa, m, d](TensorImpl* o) {
    return [pa, o, m, d]() {
      if (!InGraph(pa)) return;
      std::vector<float>& ga = GradBufferFor(pa.get());
      const float inv = 1.0f / static_cast<float>(m);
      for (int i = 0; i < m; ++i) {
        for (int j = 0; j < d; ++j) {
          ga[static_cast<size_t>(i) * d + j] += o->grad[j] * inv;
        }
      }
    };
  });
}

Tensor EuclideanDistance(const Tensor& a, const Tensor& b, double eps) {
  return Sqrt(Sum(Square(Sub(a, b))), eps);
}

Tensor WeightedSumScalars(const std::vector<Tensor>& scalars,
                          const std::vector<double>& weights) {
  TMN_CHECK(!scalars.empty());
  TMN_CHECK(scalars.size() == weights.size());
  float total = 0.0f;
  std::vector<ImplPtr> parents;
  parents.reserve(scalars.size());
  for (size_t i = 0; i < scalars.size(); ++i) {
    TMN_CHECK(scalars[i].numel() == 1);
    total += static_cast<float>(weights[i]) * scalars[i].data()[0];
    parents.push_back(scalars[i].impl());
  }
  std::vector<ImplPtr> captured = parents;
  std::vector<double> w = weights;
  return MakeOp(1, 1, {total}, std::move(parents),
                [captured, w](TensorImpl* o) {
                  return [captured, w, o]() {
                    for (size_t i = 0; i < captured.size(); ++i) {
                      const ImplPtr& p = captured[i];
                      if (!InGraph(p)) continue;
                      GradBufferFor(p.get())[0] +=
                          o->grad[0] * static_cast<float>(w[i]);
                    }
                  };
                });
}

}  // namespace tmn::nn
