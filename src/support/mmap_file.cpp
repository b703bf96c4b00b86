#include "support/mmap_file.hpp"

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "support/faultpoint.hpp"

#if defined(__has_include)
#if __has_include(<sys/mman.h>)
#define LCLGRID_HAVE_MMAP 1
#endif
#endif

#if defined(LCLGRID_HAVE_MMAP)
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#include <cstdio>
#endif

namespace lclgrid::support {

namespace {

[[noreturn]] void throwErrno(const std::string& what, const std::string& path) {
  throw std::runtime_error("MmapFile: " + what + " '" + path +
                           "': " + std::strerror(errno));
}

#if defined(LCLGRID_HAVE_MMAP)
std::size_t pageSize() {
  static const std::size_t size = [] {
    const long probed = ::sysconf(_SC_PAGESIZE);
    return probed > 0 ? static_cast<std::size_t>(probed) : std::size_t{4096};
  }();
  return size;
}
#endif

}  // namespace

MmapFile::MmapFile(const std::string& path) {
  {
    // Injected open/map failure surfaces as the same typed error a real
    // one would (docs/robustness.md).
    const auto fault = FAULT_POINT("mmap.open");
    if (fault.action == faultpoint::Action::kErrno) {
      errno = fault.errnoValue;
      throwErrno("open", path);
    }
  }
#if defined(LCLGRID_HAVE_MMAP)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throwErrno("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int saved = errno;
    ::close(fd);
    errno = saved;
    throwErrno("stat", path);
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* mapping = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mapping == MAP_FAILED) {
      const int saved = errno;
      ::close(fd);
      errno = saved;
      size_ = 0;
      throwErrno("mmap", path);
    }
    data_ = static_cast<std::byte*>(mapping);
    mapped_ = true;
    // Advisory only; a kernel that rejects the hint still maps correctly.
    (void)::madvise(data_, size_, MADV_SEQUENTIAL);
  }
  // The mapping holds its own reference to the file.
  ::close(fd);
#else
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) throwErrno("open", path);
  std::fseek(file, 0, SEEK_END);
  const long end = std::ftell(file);
  if (end < 0) {
    std::fclose(file);
    throwErrno("stat", path);
  }
  std::fseek(file, 0, SEEK_SET);
  size_ = static_cast<std::size_t>(end);
  if (size_ > 0) {
    data_ = new std::byte[size_];
    if (std::fread(data_, 1, size_, file) != size_) {
      std::fclose(file);
      delete[] data_;
      data_ = nullptr;
      size_ = 0;
      throw std::runtime_error("MmapFile: short read '" + path + "'");
    }
  }
  std::fclose(file);
#endif
}

MmapFile::~MmapFile() { reset(); }

MmapFile MmapFile::anonymous(std::size_t bytes) {
  MmapFile scratch;
  scratch.writable_ = true;
  if (bytes == 0) return scratch;
#if defined(LCLGRID_HAVE_MMAP)
  void* mapping = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mapping == MAP_FAILED) throwErrno("mmap", "<anonymous>");
#if defined(MADV_HUGEPAGE)
  // Fewer, larger first-touch faults; advisory like every madvise here.
  (void)::madvise(mapping, bytes, MADV_HUGEPAGE);
#endif
  scratch.data_ = static_cast<std::byte*>(mapping);
  scratch.mapped_ = true;
#else
  scratch.data_ = new std::byte[bytes]();
#endif
  scratch.size_ = bytes;
  return scratch;
}

MmapFile::MmapFile(MmapFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_(std::exchange(other.mapped_, false)),
      writable_(std::exchange(other.writable_, false)) {}

MmapFile& MmapFile::operator=(MmapFile&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_ = std::exchange(other.mapped_, false);
    writable_ = std::exchange(other.writable_, false);
  }
  return *this;
}

void MmapFile::reset() noexcept {
#if defined(LCLGRID_HAVE_MMAP)
  if (data_ != nullptr && mapped_) ::munmap(data_, size_);
#endif
  if (data_ != nullptr && !mapped_) delete[] data_;
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  writable_ = false;
}

void MmapFile::dropRange(std::size_t offset, std::size_t length) const {
#if defined(LCLGRID_HAVE_MMAP)
  if (data_ == nullptr || !mapped_ || length == 0) return;
  const std::size_t page = pageSize();
  const std::size_t begin = (offset + page - 1) / page * page;  // round up
  std::size_t end = offset + length;
  if (end > size_) end = size_;
  end = end / page * page;  // round down
  if (begin >= end) return;
  (void)::madvise(data_ + begin, end - begin, MADV_DONTNEED);
#else
  (void)offset;
  (void)length;
#endif
}

}  // namespace lclgrid::support
