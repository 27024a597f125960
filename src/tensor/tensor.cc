#include "tensor/tensor.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <sstream>

#include "base/mutex.h"
#include "base/scratch.h"

#if defined(__SANITIZE_ADDRESS__)
#define MG_TENSOR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MG_TENSOR_ASAN 1
#endif
#endif
#ifdef MG_TENSOR_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace mocograd {

namespace {

// Recycled blocks are cache-line aligned, like ScratchArena chunks.
constexpr size_t kRecycleAlign = 64;

// Bounds of the free list: at most this many cached blocks and bytes. A
// training step frees and re-requests the same shapes every step, so
// between steps the list holds one step's transient buffers (9 blocks,
// 144 KiB on the K = 2 EmbeddingHps model; 96 blocks, 14 MiB on the
// K = 11 HPS {512, 384} model). The bounds matter when the shape mix
// changes: the oldest blocks go back to the heap first.
constexpr int kMaxCachedBlocks = 256;
constexpr size_t kMaxCachedBytes = size_t{64} << 20;

void MarkCached(float* p, size_t bytes) {
#ifdef MG_TENSOR_ASAN
  ASAN_POISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

void MarkLive(float* p, size_t bytes) {
#ifdef MG_TENSOR_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

// Process-wide exact-size free list of recyclable tensor buffers. Take()
// prefers the most recently cached block of the requested size; Put()
// evicts the oldest blocks when a bound would be exceeded. Cached blocks
// are ASan-poisoned, so a use after the last Tensor released them still
// trips the sanitizer.
class StorageFreeList {
 public:
  float* Take(size_t bytes) {
    {
      MutexLock lk(&mu_);
      for (int i = count_ - 1; i >= 0; --i) {
        if (blocks_[i].bytes != bytes) continue;
        float* p = blocks_[i].data;
        std::copy(blocks_ + i + 1, blocks_ + count_, blocks_ + i);
        --count_;
        cached_bytes_ -= bytes;
        ++hits_;
        MarkLive(p, bytes);
        return p;
      }
      ++misses_;
    }
    // MG_COLD_PATH: a miss — the first request of this size, or one past
    // what the bounded list kept. Steady-state steps stop reaching it.
    return static_cast<float*>(
        ::operator new(bytes, std::align_val_t{kRecycleAlign}));
    // MG_COLD_PATH_END
  }

  void Put(float* p, size_t bytes) {
    if (bytes > kMaxCachedBytes) {
      Free(p);
      return;
    }
    MutexLock lk(&mu_);
    while (count_ == kMaxCachedBlocks ||
           cached_bytes_ + bytes > kMaxCachedBytes) {
      // Evict the oldest block (rare: only when the shape mix changes).
      MarkLive(blocks_[0].data, blocks_[0].bytes);
      Free(blocks_[0].data);
      cached_bytes_ -= blocks_[0].bytes;
      std::copy(blocks_ + 1, blocks_ + count_, blocks_);
      --count_;
    }
    MarkCached(p, bytes);
    blocks_[count_++] = Block{p, bytes};
    cached_bytes_ += bytes;
  }

  TensorStorage::Stats GetStats() {
    MutexLock lk(&mu_);
    TensorStorage::Stats s;
    s.hits = hits_;
    s.misses = misses_;
    return s;
  }

 private:
  struct Block {
    float* data = nullptr;
    size_t bytes = 0;
  };

  static void Free(float* p) {
    ::operator delete(p, std::align_val_t{kRecycleAlign});
  }

  Mutex mu_;
  // Oldest first. A fixed array, so caching a block never allocates.
  Block blocks_[kMaxCachedBlocks] MG_GUARDED_BY(mu_);
  int count_ MG_GUARDED_BY(mu_) = 0;
  size_t cached_bytes_ MG_GUARDED_BY(mu_) = 0;
  int64_t hits_ MG_GUARDED_BY(mu_) = 0;
  int64_t misses_ MG_GUARDED_BY(mu_) = 0;
};

StorageFreeList& FreeList() {
  // Never destroyed: tensors held by other statics may die after it.
  static StorageFreeList* list = new StorageFreeList;
  return *list;
}

// Fills unset storage with ScratchArena's signaling-NaN pattern.
void PoisonFloats(float* p, int64_t n) {
  const uint32_t word = ScratchArena::kPoisonPattern;
  for (int64_t i = 0; i < n; ++i) std::memcpy(p + i, &word, sizeof(word));
}

bool Recyclable(int64_t n) {
  return n * static_cast<int64_t>(sizeof(float)) >=
         TensorStorage::kRecycleMinBytes;
}

}  // namespace

TensorStorage::TensorStorage(int64_t n, bool zero) : size_(n) {
  MG_CHECK_GE(n, 0);
  if (n == 0) return;
  const size_t bytes = static_cast<size_t>(n) * sizeof(float);
  data_ = Recyclable(n) ? FreeList().Take(bytes)
                        : static_cast<float*>(::operator new(bytes));
  if (zero) {
    std::memset(data_, 0, bytes);
  } else if (ScratchArena::PoisoningEnabled()) {
    PoisonFloats(data_, n);
  }
}

TensorStorage::TensorStorage(std::vector<float> values)
    : size_(static_cast<int64_t>(values.size())),
      adopted_(std::move(values)) {
  data_ = adopted_.data();
}

TensorStorage::~TensorStorage() {
  if (data_ == nullptr || !adopted_.empty()) return;
  const size_t bytes = static_cast<size_t>(size_) * sizeof(float);
  if (Recyclable(size_)) {
    FreeList().Put(data_, bytes);
  } else {
    ::operator delete(data_);
  }
}

TensorStorage::Stats TensorStorage::GetStats() {
  return FreeList().GetStats();
}

Tensor Tensor::Uninitialized(Shape shape) {
  Tensor t;
  t.storage_ = std::make_shared<TensorStorage>(shape.NumElements(),
                                               /*zero=*/false);
  t.shape_ = std::move(shape);
  return t;
}

Tensor Tensor::Full(Shape shape, float value) {
  Tensor t = Uninitialized(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(Shape shape, std::vector<float> values) {
  MG_CHECK_EQ(shape.NumElements(), static_cast<int64_t>(values.size()),
              "FromVector size mismatch for shape ", shape.ToString());
  Tensor t;
  t.shape_ = std::move(shape);
  t.storage_ = std::make_shared<TensorStorage>(std::move(values));
  return t;
}

Tensor Tensor::Randn(Shape shape, Rng& rng, float mean, float stddev) {
  Tensor t = Uninitialized(std::move(shape));
  float* p = t.data();
  const int64_t n = t.NumElements();
  for (int64_t i = 0; i < n; ++i) p[i] = rng.Normal(mean, stddev);
  return t;
}

Tensor Tensor::Rand(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t = Uninitialized(std::move(shape));
  float* p = t.data();
  const int64_t n = t.NumElements();
  for (int64_t i = 0; i < n; ++i) p[i] = rng.Uniform(lo, hi);
  return t;
}

Tensor Tensor::Arange(int64_t n) {
  Tensor t = Uninitialized(Shape{n});
  float* p = t.data();
  for (int64_t i = 0; i < n; ++i) p[i] = static_cast<float>(i);
  return t;
}

Tensor Tensor::Clone() const {
  MG_CHECK(defined(), "Clone of undefined tensor");
  Tensor t = Uninitialized(shape_);
  std::copy(data(), data() + NumElements(), t.data());
  return t;
}

Tensor Tensor::Reshape(std::vector<int64_t> dims) const {
  MG_CHECK(defined(), "Reshape of undefined tensor");
  int64_t known = 1;
  int infer = -1;
  for (size_t i = 0; i < dims.size(); ++i) {
    if (dims[i] == -1) {
      MG_CHECK_EQ(infer, -1, "at most one -1 dimension in Reshape");
      infer = static_cast<int>(i);
    } else {
      known *= dims[i];
    }
  }
  if (infer >= 0) {
    MG_CHECK_GT(known, 0);
    MG_CHECK_EQ(NumElements() % known, 0, "cannot infer dim in Reshape");
    dims[infer] = NumElements() / known;
  }
  Shape new_shape(std::move(dims));
  MG_CHECK_EQ(new_shape.NumElements(), NumElements(), "Reshape from ",
              shape_.ToString(), " to ", new_shape.ToString());
  Tensor t;
  t.shape_ = std::move(new_shape);
  t.storage_ = storage_;
  return t;
}

void Tensor::CopyFrom(const Tensor& src) {
  MG_CHECK(defined() && src.defined());
  MG_CHECK_EQ(NumElements(), src.NumElements(), "CopyFrom size mismatch");
  std::copy(src.data(), src.data() + src.NumElements(), data());
}

void Tensor::Fill(float value) {
  MG_CHECK(defined());
  std::fill(data(), data() + storage_->size(), value);
}

std::vector<float> Tensor::ToVector() const {
  MG_CHECK(defined());
  return std::vector<float>(data(), data() + storage_->size());
}

std::string Tensor::ToString(int64_t limit) const {
  std::ostringstream oss;
  oss << "Tensor" << shape_.ToString() << " {";
  if (defined()) {
    const int64_t n = std::min<int64_t>(limit, NumElements());
    for (int64_t i = 0; i < n; ++i) {
      if (i) oss << ", ";
      oss << data()[i];
    }
    if (n < NumElements()) oss << ", ...";
  } else {
    oss << "undefined";
  }
  oss << "}";
  return oss.str();
}

}  // namespace mocograd
