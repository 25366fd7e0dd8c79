#include "tensor/tensor3.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace evfl::tensor {

Matrix Tensor3::timestep(std::size_t t) const {
  EVFL_ASSERT(t < t_, "timestep out of range");
  Matrix m(n_, f_);
  for (std::size_t n = 0; n < n_; ++n) {
    const float* src = data_.data() + (n * t_ + t) * f_;
    std::copy(src, src + f_, m.row(n));
  }
  return m;
}

void Tensor3::copy_timestep_into(std::size_t t, Matrix& dst) const {
  EVFL_ASSERT(t < t_, "timestep out of range");
  dst.reshape(n_, f_);
  if (f_ == 1) {
    // One float per row: a strided loop, not a copy call per float.
    const float* src = data_.data() + t;
    float* out = dst.data();
    for (std::size_t n = 0; n < n_; ++n) out[n] = src[n * t_];
    return;
  }
  for (std::size_t n = 0; n < n_; ++n) {
    const float* src = data_.data() + (n * t_ + t) * f_;
    std::copy(src, src + f_, dst.row(n));
  }
}

void Tensor3::set_timestep(std::size_t t, const Matrix& m) {
  EVFL_ASSERT(t < t_, "timestep out of range");
  if (m.rows() != n_ || m.cols() != f_) {
    throw ShapeError("set_timestep: " + m.shape_str() + " into " + shape_str());
  }
  for (std::size_t n = 0; n < n_; ++n) {
    float* dst = data_.data() + (n * t_ + t) * f_;
    std::copy(m.row(n), m.row(n) + f_, dst);
  }
}

void Tensor3::set_timestep(std::size_t t, ConstMatView m) {
  EVFL_ASSERT(t < t_, "timestep out of range");
  if (m.rows != n_ || m.cols != f_) {
    throw ShapeError("set_timestep: view into " + shape_str());
  }
  for (std::size_t n = 0; n < n_; ++n) {
    float* dst = data_.data() + (n * t_ + t) * f_;
    const float* src = m.row(n);
    std::copy(src, src + f_, dst);
  }
}

void Tensor3::add_timestep(std::size_t t, const Matrix& m) {
  EVFL_ASSERT(t < t_, "timestep out of range");
  if (m.rows() != n_ || m.cols() != f_) {
    throw ShapeError("add_timestep: " + m.shape_str() + " into " + shape_str());
  }
  for (std::size_t n = 0; n < n_; ++n) {
    float* dst = data_.data() + (n * t_ + t) * f_;
    const float* src = m.row(n);
    for (std::size_t f = 0; f < f_; ++f) dst[f] += src[f];
  }
}

Matrix Tensor3::sample(std::size_t n) const {
  EVFL_ASSERT(n < n_, "sample out of range");
  Matrix m(t_, f_);
  const float* src = data_.data() + n * t_ * f_;
  std::copy(src, src + t_ * f_, m.data());
  return m;
}

void Tensor3::set_sample(std::size_t n, const Matrix& m) {
  EVFL_ASSERT(n < n_, "sample out of range");
  if (m.rows() != t_ || m.cols() != f_) {
    throw ShapeError("set_sample: " + m.shape_str() + " into " + shape_str());
  }
  std::copy(m.data(), m.data() + t_ * f_, data_.data() + n * t_ * f_);
}

Matrix Tensor3::flatten_rows() const {
  Matrix m(n_ * t_, f_);
  std::copy(data_.begin(), data_.end(), m.data());
  return m;
}

void Tensor3::flatten_rows_into(Matrix& dst) const {
  dst.reshape(n_ * t_, f_);
  std::copy(data_.begin(), data_.end(), dst.data());
}

Tensor3 Tensor3::from_flat_rows(const Matrix& m, std::size_t n, std::size_t t) {
  if (m.rows() != n * t) {
    throw ShapeError("from_flat_rows: row count mismatch");
  }
  Tensor3 out(n, t, m.cols());
  std::copy(m.data(), m.data() + m.size(), out.data());
  return out;
}

Tensor3 Tensor3::from_flat_rows(ConstMatView m, std::size_t n, std::size_t t) {
  if (m.rows != n * t) {
    throw ShapeError("from_flat_rows: row count mismatch");
  }
  Tensor3 out(n, t, m.cols);
  for (std::size_t r = 0; r < m.rows; ++r) {
    const float* src = m.row(r);
    std::copy(src, src + m.cols, out.data() + r * m.cols);
  }
  return out;
}

Tensor3 Tensor3::batch_slice(std::size_t begin, std::size_t end) const {
  EVFL_REQUIRE(begin <= end && end <= n_, "batch_slice range invalid");
  Tensor3 out(end - begin, t_, f_);
  const std::size_t stride = t_ * f_;
  std::copy(data_.data() + begin * stride, data_.data() + end * stride,
            out.data());
  return out;
}

Tensor3 Tensor3::gather(const std::vector<std::size_t>& indices) const {
  Tensor3 out(indices.size(), t_, f_);
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EVFL_REQUIRE(indices[i] < n_, "gather index out of range");
    copy_sample_into(indices[i], out, i);
  }
  return out;
}

void Tensor3::copy_batch_into(Tensor3& dst, std::size_t offset) const {
  if (t_ != dst.t_ || f_ != dst.f_) {
    throw ShapeError("copy_batch_into: " + shape_str() + " into " +
                     dst.shape_str());
  }
  EVFL_REQUIRE(offset + n_ <= dst.n_, "copy_batch_into: batch overflow");
  const std::size_t stride = t_ * f_;
  std::copy(data_.data(), data_.data() + n_ * stride,
            dst.data() + offset * stride);
}

void Tensor3::copy_sample_into(std::size_t src_index, Tensor3& dst,
                               std::size_t dst_index) const {
  EVFL_ASSERT(src_index < n_ && dst_index < dst.n_,
              "copy_sample_into: index out of range");
  EVFL_ASSERT(t_ == dst.t_ && f_ == dst.f_,
              "copy_sample_into: shape mismatch");
  const std::size_t stride = t_ * f_;
  std::copy(data_.data() + src_index * stride,
            data_.data() + (src_index + 1) * stride,
            dst.data() + dst_index * stride);
}

Tensor3& Tensor3::operator+=(const Tensor3& o) {
  if (!same_shape(o)) {
    throw ShapeError("Tensor3 +=: " + shape_str() + " vs " + o.shape_str());
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Tensor3& Tensor3::operator-=(const Tensor3& o) {
  if (!same_shape(o)) {
    throw ShapeError("Tensor3 -=: " + shape_str() + " vs " + o.shape_str());
  }
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
  return *this;
}

Tensor3& Tensor3::operator*=(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

float Tensor3::sum() const {
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Tensor3::squared_norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

std::string Tensor3::shape_str() const {
  std::ostringstream os;
  os << "[" << n_ << " x " << t_ << " x " << f_ << "]";
  return os.str();
}

float max_abs_diff(const Tensor3& a, const Tensor3& b) {
  if (!a.same_shape(b)) {
    throw ShapeError("max_abs_diff: " + a.shape_str() + " vs " + b.shape_str());
  }
  float worst = 0.0f;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a.data()[i] - b.data()[i]));
  }
  return worst;
}

}  // namespace evfl::tensor
