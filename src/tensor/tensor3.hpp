// Tensor3 is the [batch, time, feature] container that flows between nn
// layers.  Storage is one contiguous row-major buffer (n outer, t middle,
// f inner) so per-timestep Matrix slices are cheap strided copies.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "tensor/matrix.hpp"

namespace evfl::tensor {

class Tensor3 {
 public:
  Tensor3() = default;

  /// batch x time x features, zero-initialized.
  Tensor3(std::size_t n, std::size_t t, std::size_t f)
      : n_(n), t_(t), f_(f), data_(n * t * f, 0.0f) {}

  std::size_t batch() const { return n_; }
  std::size_t time() const { return t_; }
  std::size_t features() const { return f_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& operator()(std::size_t n, std::size_t t, std::size_t f) {
    return data_[(n * t_ + t) * f_ + f];
  }
  float operator()(std::size_t n, std::size_t t, std::size_t f) const {
    return data_[(n * t_ + t) * f_ + f];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  bool same_shape(const Tensor3& o) const {
    return n_ == o.n_ && t_ == o.t_ && f_ == o.f_;
  }

  /// Make this n x t x f with Matrix::reshape's storage rule: the storage
  /// stays when the new shape fits in it, and the contents are unspecified.
  void reshape(std::size_t n, std::size_t t, std::size_t f) {
    reshape_storage(data_, n * t * f);
    n_ = n;
    t_ = t;
    f_ = f;
  }

  /// Copy out timestep t as an [batch x features] matrix.
  Matrix timestep(std::size_t t) const;
  /// Copy timestep t into `dst`, reshaped to [batch x features]
  /// (allocation-free when the shape fits in its storage).
  void copy_timestep_into(std::size_t t, Matrix& dst) const;
  /// Overwrite timestep t from an [batch x features] matrix.
  void set_timestep(std::size_t t, const Matrix& m);
  /// Overwrite timestep t from a strided [batch x features] view.
  void set_timestep(std::size_t t, ConstMatView m);
  /// Accumulate an [batch x features] matrix into timestep t.
  void add_timestep(std::size_t t, const Matrix& m);

  /// Copy out sample n as a [time x features] matrix.
  Matrix sample(std::size_t n) const;
  void set_sample(std::size_t n, const Matrix& m);

  /// Reinterpret as [(batch*time) x features] — same data, matrix view copy.
  Matrix flatten_rows() const;
  /// flatten_rows into `dst`, reshaped (allocation-free when the shape
  /// fits in its storage).
  void flatten_rows_into(Matrix& dst) const;
  /// Inverse of flatten_rows for a known (n, t) split.
  static Tensor3 from_flat_rows(const Matrix& m, std::size_t n, std::size_t t);
  static Tensor3 from_flat_rows(ConstMatView m, std::size_t n, std::size_t t);

  /// Select a contiguous batch range [begin, end) into a new tensor.
  Tensor3 batch_slice(std::size_t begin, std::size_t end) const;

  /// Gather rows by index (mini-batch sampling).
  Tensor3 gather(const std::vector<std::size_t>& indices) const;

  /// Bulk-copy all of this tensor's samples into `dst` starting at batch
  /// index `offset` (one contiguous memcpy; time/feature dims must match).
  void copy_batch_into(Tensor3& dst, std::size_t offset) const;

  /// Copy one sample `src_index` of this tensor into `dst` at `dst_index`.
  void copy_sample_into(std::size_t src_index, Tensor3& dst,
                        std::size_t dst_index) const;

  Tensor3& operator+=(const Tensor3& o);
  Tensor3& operator-=(const Tensor3& o);
  Tensor3& operator*=(float s);

  float sum() const;
  float squared_norm() const;

  std::string shape_str() const;

 private:
  std::size_t n_ = 0, t_ = 0, f_ = 0;
  FloatVec data_;
};

float max_abs_diff(const Tensor3& a, const Tensor3& b);

}  // namespace evfl::tensor
