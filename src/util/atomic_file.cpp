#include "util/atomic_file.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#define QHDL_HAVE_FSYNC 1
#endif

#include "util/fault_injection.hpp"

namespace qhdl::util {

namespace {

/// Process-unique temp suffix: concurrent writers (parallel sweep levels
/// flushing the same checkpoint is serialized upstream, but distinct files
/// may be written from different threads) must never collide on temp names.
std::string temp_path_for(const std::string& path) {
  static std::atomic<std::uint64_t> counter{0};
  const std::uint64_t id = counter.fetch_add(1, std::memory_order_relaxed);
  return path + ".tmp." + std::to_string(id);
}

[[noreturn]] void fail(const std::string& stage, const std::string& path,
                       const std::string& temp) {
  const int saved_errno = errno;
  std::error_code ec;
  if (!temp.empty()) std::filesystem::remove(temp, ec);  // best-effort
  std::string message = "atomic_write_file: " + stage + " failed for " + path;
  if (saved_errno != 0) {
    message += ": ";
    message += std::strerror(saved_errno);
  }
  throw std::runtime_error(message);
}

}  // namespace

void atomic_write_file(const std::string& path, std::string_view content) {
  const std::string temp = temp_path_for(path);

  errno = 0;
  std::FILE* file = std::fopen(temp.c_str(), "wb");
  if (file == nullptr) fail("open", path, "");

  const std::size_t written =
      content.empty() ? 0
                      : std::fwrite(content.data(), 1, content.size(), file);
  if (written != content.size()) {
    std::fclose(file);
    fail("write", path, temp);
  }
  if (std::fflush(file) != 0) {
    std::fclose(file);
    fail("flush", path, temp);
  }
#ifdef QHDL_HAVE_FSYNC
  if (fsync(fileno(file)) != 0) {
    std::fclose(file);
    fail("fsync", path, temp);
  }
#endif
  if (std::fclose(file) != 0) fail("close", path, temp);

  // The staged content is complete and on disk; the injected IO fault fires
  // here, at the worst possible moment — after the work, before the commit —
  // to prove the destination is never left partial.
  try {
    FaultInjector::instance().on_io_write(path);
  } catch (...) {
    std::error_code ec;
    std::filesystem::remove(temp, ec);
    throw;
  }

  std::error_code ec;
  std::filesystem::rename(temp, path, ec);
  if (ec) {
    errno = 0;
    std::error_code cleanup;
    std::filesystem::remove(temp, cleanup);
    throw std::runtime_error("atomic_write_file: rename failed for " + path +
                             ": " + ec.message());
  }

#ifdef QHDL_HAVE_FSYNC
  // The rename is only durable once the parent directory's entry for it is
  // on disk; without this fsync a power loss can roll the directory back to
  // a state where the just-committed file never existed. A failure here
  // leaves the new content visible but its durability unproven, so it is
  // reported like every other stage (the injectable `dir=fail` site tests
  // this path).
  FaultInjector::instance().on_io_dir_sync(path);
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  errno = 0;
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (dir_fd < 0) fail("open-dir", path, "");
  if (::fsync(dir_fd) != 0) {
    const int saved_errno = errno;
    ::close(dir_fd);
    errno = saved_errno;
    fail("fsync-dir", path, "");
  }
  ::close(dir_fd);
#endif
}

}  // namespace qhdl::util
