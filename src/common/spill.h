#ifndef GENBASE_COMMON_SPILL_H_
#define GENBASE_COMMON_SPILL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace genbase {

/// \brief Disk-backed byte stream used by the MapReduce engine to materialize
/// every stage boundary, as Hadoop does between map and reduce. Writes go to
/// real files under a temp directory so the cost is genuinely incurred. The
/// file is unlinked as soon as it is opened: the descriptor keeps its bytes
/// until it is closed or the process exits, so no spill file outlives its
/// process, whether or not its owner is ever destroyed.
class SpillFile {
 public:
  SpillFile() = default;
  ~SpillFile();

  SpillFile(SpillFile&& other) noexcept;
  SpillFile& operator=(SpillFile&& other) noexcept;
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  /// Creates a fresh spill file in `dir` (or the default spill dir if empty).
  static Result<SpillFile> Create(const std::string& dir = "");

  /// Appends raw bytes; flushed through the OS file API.
  Status Write(const void* data, int64_t bytes);

  /// Convenience typed writers.
  Status WriteDoubles(const double* data, int64_t count) {
    return Write(data, count * static_cast<int64_t>(sizeof(double)));
  }
  Status WriteInts(const int64_t* data, int64_t count) {
    return Write(data, count * static_cast<int64_t>(sizeof(int64_t)));
  }

  /// Finishes writing and reopens for reading from the start.
  Status FinishWrite();

  /// Resets the read cursor to the start (files are re-read across queries,
  /// like HDFS inputs).
  Status Rewind() { return FinishWrite(); }

  /// Reads exactly `bytes` bytes; fails if the file is exhausted.
  Status Read(void* data, int64_t bytes);

  Status ReadDoubles(double* data, int64_t count) {
    return Read(data, count * static_cast<int64_t>(sizeof(double)));
  }
  Status ReadInts(int64_t* data, int64_t count) {
    return Read(data, count * static_cast<int64_t>(sizeof(int64_t)));
  }

  int64_t bytes_written() const { return bytes_written_; }

  /// Closes the file, which frees its bytes.
  void Discard();

 private:
  int fd_ = -1;
  int64_t bytes_written_ = 0;
  bool reading_ = false;
};

/// \brief Returns (creating if needed) the process-wide spill directory.
const std::string& DefaultSpillDir();

}  // namespace genbase

#endif  // GENBASE_COMMON_SPILL_H_
