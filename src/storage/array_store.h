#ifndef GENBASE_STORAGE_ARRAY_STORE_H_
#define GENBASE_STORAGE_ARRAY_STORE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/memory_tracker.h"
#include "common/status.h"
#include "linalg/matrix.h"

namespace genbase::storage {

/// \brief Chunked dense 2-D array of doubles: the SciDB-like substrate.
///
/// The array is tiled into fixed-size chunks (SciDB's "rather large"
/// rectangular chunks; we default to 256x256 cells = 512 KiB). Array-native
/// engines operate chunk-wise and never pay a relational->array restructure
/// cost, which is the architectural advantage the paper credits SciDB with.
class ChunkedArray2D {
 public:
  static constexpr int64_t kDefaultChunk = 256;

  ChunkedArray2D() = default;

  static genbase::Result<ChunkedArray2D> Create(
      int64_t rows, int64_t cols, MemoryTracker* tracker = nullptr,
      int64_t chunk = kDefaultChunk);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t chunk() const { return chunk_; }
  int64_t chunk_rows() const { return chunk_grid_rows_; }
  int64_t chunk_cols() const { return chunk_grid_cols_; }

  /// Whether (r, c) is a cell of the array; Get and Set assume it is.
  bool Contains(int64_t r, int64_t c) const {
    return r >= 0 && r < rows_ && c >= 0 && c < cols_;
  }

  double Get(int64_t r, int64_t c) const {
    const Chunk& ch = ChunkAt(r / chunk_, c / chunk_);
    return ch.data[(r % chunk_) * chunk_ + (c % chunk_)];
  }
  void Set(int64_t r, int64_t c, double v) {
    Chunk& ch = MutableChunkAt(r / chunk_, c / chunk_);
    ch.data[(r % chunk_) * chunk_ + (c % chunk_)] = v;
  }

  /// Dense copy of the whole array (row-major). Charged to `tracker`.
  genbase::Result<linalg::Matrix> ToMatrix(MemoryTracker* tracker) const;

  /// Dense copy of a row/column selection (ids are dense indices).
  genbase::Result<linalg::Matrix> GatherSubmatrix(
      const std::vector<int64_t>& row_ids,
      const std::vector<int64_t>& col_ids, MemoryTracker* tracker) const;

  /// Bulk import from a dense matrix.
  static genbase::Result<ChunkedArray2D> FromMatrix(
      const linalg::MatrixView& m, MemoryTracker* tracker = nullptr,
      int64_t chunk = kDefaultChunk);

  int64_t bytes() const {
    return static_cast<int64_t>(chunks_.size()) * chunk_ * chunk_ * 8;
  }

 private:
  struct Chunk {
    std::vector<double> data;
  };

  const Chunk& ChunkAt(int64_t cr, int64_t cc) const {
    return chunks_[static_cast<size_t>(cr * chunk_grid_cols_ + cc)];
  }
  Chunk& MutableChunkAt(int64_t cr, int64_t cc) {
    return chunks_[static_cast<size_t>(cr * chunk_grid_cols_ + cc)];
  }

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  int64_t chunk_ = kDefaultChunk;
  int64_t chunk_grid_rows_ = 0;
  int64_t chunk_grid_cols_ = 0;
  std::vector<Chunk> chunks_;
  ScopedReservation reservation_;
};

}  // namespace genbase::storage

#endif  // GENBASE_STORAGE_ARRAY_STORE_H_
