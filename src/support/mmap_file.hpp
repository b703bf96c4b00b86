// Memory-mapped files for the out-of-core verification tier
// (lcl/stream_verify.hpp). An MmapFile maps a whole file into the address
// space with a sequential-access hint, so the streaming kernels can walk
// labellings far larger than RAM: the OS pages data in ahead of the read
// cursor and the caller drops the pages behind it with dropRange, keeping
// the resident set bounded by the rolling window instead of the file size.
//
// On platforms without <sys/mman.h> the class degrades to reading the whole
// file into heap memory (dropRange becomes a no-op) -- correct, just not
// out-of-core. The repo's CI and dev targets are all POSIX.
#pragma once

#include <cstddef>
#include <string>

namespace lclgrid::support {

class MmapFile {
 public:
  MmapFile() = default;
  /// Opens and maps `path` read-only; advises sequential access. Throws
  /// std::runtime_error (with errno text) when the file cannot be opened,
  /// stat'ed or mapped. A zero-byte file maps to data() == nullptr.
  explicit MmapFile(const std::string& path);
  ~MmapFile();

  /// A writable, zero-filled anonymous mapping of `bytes` bytes, reserved
  /// up front and backed lazily: only the pages written become resident,
  /// and dropRange returns them (a dropped page reads back as zeros). The
  /// streaming tier decodes packed labellings into one. Throws
  /// std::runtime_error when the address space cannot be reserved; heap
  /// memory (fully backed) without <sys/mman.h>.
  static MmapFile anonymous(std::size_t bytes);

  MmapFile(MmapFile&& other) noexcept;
  MmapFile& operator=(MmapFile&& other) noexcept;
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  bool isOpen() const { return data_ != nullptr || size_ == 0; }
  const std::byte* data() const { return data_; }
  /// The bytes of an anonymous() mapping (nullptr for a file: those map
  /// read-only).
  std::byte* writableData() const { return writable_ ? data_ : nullptr; }
  std::size_t size() const { return size_; }

  /// Advises the OS that [offset, offset + length) will not be needed
  /// again, so its resident pages may be reclaimed (the mapping stays
  /// valid -- a later access re-reads from the file). The range is shrunk
  /// inward to whole pages; a sub-page range is a no-op. Purely advisory:
  /// never affects the bytes an access observes.
  void dropRange(std::size_t offset, std::size_t length) const;

 private:
  void reset() noexcept;

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;  // true: munmap on destruction; false: heap buffer
  bool writable_ = false;  // an anonymous() mapping
};

}  // namespace lclgrid::support
