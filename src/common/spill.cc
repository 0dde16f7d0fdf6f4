#include "common/spill.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>

namespace genbase {

namespace {
std::atomic<uint64_t> g_spill_counter{0};
}  // namespace

const std::string& DefaultSpillDir() {
  static const std::string* dir = [] {
    std::string d = "/tmp/genbase_spill";
    ::mkdir(d.c_str(), 0755);
    // lint:allow(raw-new-delete): leaked function-local singleton, avoids a static-destruction-order race with spill files closed at teardown
    return new std::string(d);
  }();
  return *dir;
}

SpillFile::~SpillFile() { Discard(); }

SpillFile::SpillFile(SpillFile&& other) noexcept
    : fd_(other.fd_),
      bytes_written_(other.bytes_written_),
      reading_(other.reading_) {
  other.fd_ = -1;
}

SpillFile& SpillFile::operator=(SpillFile&& other) noexcept {
  Discard();
  fd_ = other.fd_;
  bytes_written_ = other.bytes_written_;
  reading_ = other.reading_;
  other.fd_ = -1;
  return *this;
}

Result<SpillFile> SpillFile::Create(const std::string& dir) {
  SpillFile f;
  const std::string path =
      (dir.empty() ? DefaultSpillDir() : dir) + "/spill_" +
      std::to_string(::getpid()) + "_" +
      std::to_string(g_spill_counter.fetch_add(1, std::memory_order_relaxed));
  f.fd_ = ::open(path.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (f.fd_ < 0) {
    return Status::IOError("cannot create spill file " + path + ": " +
                           std::strerror(errno));
  }
  // The open descriptor keeps the bytes; the name is not needed again.
  ::unlink(path.c_str());
  return f;
}

Status SpillFile::Write(const void* data, int64_t bytes) {
  if (fd_ < 0) return Status::IOError("spill file not open");
  if (reading_) return Status::IOError("spill file already in read mode");
  const char* p = static_cast<const char*>(data);
  int64_t remaining = bytes;
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, p, static_cast<size_t>(remaining));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("spill write failed: ") +
                             std::strerror(errno));
    }
    p += n;
    remaining -= n;
  }
  bytes_written_ += bytes;
  return Status::OK();
}

Status SpillFile::FinishWrite() {
  if (fd_ < 0) return Status::IOError("spill file not open");
  if (::lseek(fd_, 0, SEEK_SET) < 0) {
    return Status::IOError("spill seek failed");
  }
  reading_ = true;
  return Status::OK();
}

Status SpillFile::Read(void* data, int64_t bytes) {
  if (fd_ < 0) return Status::IOError("spill file not open");
  if (!reading_) return Status::IOError("call FinishWrite before Read");
  char* p = static_cast<char*>(data);
  int64_t remaining = bytes;
  while (remaining > 0) {
    const ssize_t n = ::read(fd_, p, static_cast<size_t>(remaining));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("spill read failed: ") +
                             std::strerror(errno));
    }
    if (n == 0) return Status::IOError("spill file exhausted");
    p += n;
    remaining -= n;
  }
  return Status::OK();
}

void SpillFile::Discard() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace genbase
