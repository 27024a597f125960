#ifndef MOCOGRAD_TENSOR_TENSOR_H_
#define MOCOGRAD_TENSOR_TENSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/check.h"
#include "base/rng.h"
#include "tensor/shape.h"

namespace mocograd {

/// One tensor's element buffer (docs/ARCHITECTURE.md "Tensor storage").
/// Buffers of at least kRecycleMinBytes come from a process-wide,
/// exact-size, bounded free list and go back to it when the last Tensor
/// sharing them dies, so a training step that repeats the previous step's
/// shapes never reaches the heap for them. Smaller buffers use plain
/// new/delete; FromVector's buffer is adopted as is.
class TensorStorage {
 public:
  /// Smallest buffer the free list recycles.
  static constexpr int64_t kRecycleMinBytes = int64_t{16} << 10;

  /// `n` floats, zero-filled when `zero`; otherwise unset (signaling-NaN
  /// poison in MOCOGRAD_DEBUG_POISON builds).
  TensorStorage(int64_t n, bool zero);
  /// Adopts `values` without copying.
  explicit TensorStorage(std::vector<float> values);
  ~TensorStorage();

  TensorStorage(const TensorStorage&) = delete;
  TensorStorage& operator=(const TensorStorage&) = delete;

  float* data() { return data_; }
  const float* data() const { return data_; }
  int64_t size() const { return size_; }

  /// Free-list counters since process start, for steady-state tests.
  struct Stats {
    int64_t hits = 0;    // recyclable requests served from the free list
    int64_t misses = 0;  // recyclable requests that went to the heap
  };
  static Stats GetStats();

 private:
  float* data_ = nullptr;
  int64_t size_ = 0;
  std::vector<float> adopted_;  // FromVector's buffer; empty otherwise
};

/// Dense, contiguous, row-major float32 tensor with shared storage.
///
/// Copying a Tensor is cheap: it shares the underlying buffer (like
/// torch.Tensor). Use Clone() for a deep copy. All views produced by
/// Reshape() alias the same storage; slicing operations in ops.h copy.
/// An empty (default-constructed) Tensor has null storage and is only valid
/// as a placeholder.
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        storage_(std::make_shared<TensorStorage>(shape_.NumElements(),
                                                 /*zero=*/true)) {}

  /// --- Factories -------------------------------------------------------

  static Tensor Zeros(Shape shape) { return Tensor(std::move(shape)); }

  /// Tensor whose elements are left unset. Only for outputs the caller
  /// overwrites in full before any read (docs/CORRECTNESS.md lists the
  /// ops that qualify); MOCOGRAD_DEBUG_POISON builds fill it with
  /// signaling NaNs so a missed element shows up as NaN.
  static Tensor Uninitialized(Shape shape);
  static Tensor Ones(Shape shape) { return Full(std::move(shape), 1.0f); }
  static Tensor Full(Shape shape, float value);
  static Tensor Scalar(float value) { return Full(Shape{}, value); }

  /// Takes ownership of `values`; size must equal shape.NumElements().
  static Tensor FromVector(Shape shape, std::vector<float> values);

  /// I.i.d. N(mean, stddev) entries.
  static Tensor Randn(Shape shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);

  /// I.i.d. U[lo, hi) entries.
  static Tensor Rand(Shape shape, Rng& rng, float lo = 0.0f, float hi = 1.0f);

  /// [0, 1, ..., n-1] as a rank-1 tensor.
  static Tensor Arange(int64_t n);

  /// --- Accessors -------------------------------------------------------

  bool defined() const { return storage_ != nullptr; }
  const Shape& shape() const { return shape_; }
  int64_t NumElements() const { return shape_.NumElements(); }
  int Rank() const { return shape_.Rank(); }
  int64_t Dim(int i) const { return shape_.Dim(i); }

  float* data() {
    MG_CHECK(defined(), "access to undefined tensor");
    return storage_->data();
  }
  const float* data() const {
    MG_CHECK(defined(), "access to undefined tensor");
    return storage_->data();
  }

  /// Element access by flat index. Bounds are MG_DCHECK'd: enforced in
  /// Debug and sanitized builds, free in Release (these accessors sit on
  /// per-element hot paths).
  float& operator[](int64_t i) {
    MG_DCHECK_GE(i, 0, "index into ", shape_.ToString());
    MG_DCHECK_LT(i, NumElements(), "index into ", shape_.ToString());
    return data()[i];
  }
  float operator[](int64_t i) const {
    MG_DCHECK_GE(i, 0, "index into ", shape_.ToString());
    MG_DCHECK_LT(i, NumElements(), "index into ", shape_.ToString());
    return data()[i];
  }

  /// 2-D element access; tensor must be rank 2 (bounds MG_DCHECK'd).
  float& At(int64_t r, int64_t c) {
    MG_DCHECK_EQ(Rank(), 2, "At() on ", shape_.ToString());
    MG_DCHECK(r >= 0 && r < Dim(0) && c >= 0 && c < Dim(1), "At(", r, ", ",
              c, ") out of bounds for ", shape_.ToString());
    return data()[r * Dim(1) + c];
  }
  float At(int64_t r, int64_t c) const {
    MG_DCHECK_EQ(Rank(), 2, "At() on ", shape_.ToString());
    MG_DCHECK(r >= 0 && r < Dim(0) && c >= 0 && c < Dim(1), "At(", r, ", ",
              c, ") out of bounds for ", shape_.ToString());
    return data()[r * Dim(1) + c];
  }

  /// The single value of a one-element tensor.
  float Item() const {
    MG_CHECK_EQ(NumElements(), 1, "Item() on non-scalar ", shape_.ToString());
    return data()[0];
  }

  /// --- Transformations --------------------------------------------------

  /// Deep copy with fresh storage.
  Tensor Clone() const;

  /// View with a different shape (same element count, shared storage).
  /// One dimension may be -1 and is inferred.
  Tensor Reshape(std::vector<int64_t> dims) const;

  /// Copies `src` (same shape) into this tensor's storage.
  void CopyFrom(const Tensor& src);

  /// Sets every element to `value`.
  void Fill(float value);

  /// Copies all elements out as a std::vector.
  std::vector<float> ToVector() const;

  /// Pretty printer for debugging: shape plus up to `limit` elements.
  std::string ToString(int64_t limit = 16) const;

  /// True when both tensors share the same storage buffer.
  bool SharesStorageWith(const Tensor& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }

 private:
  Shape shape_;
  std::shared_ptr<TensorStorage> storage_;
};

}  // namespace mocograd

#endif  // MOCOGRAD_TENSOR_TENSOR_H_
