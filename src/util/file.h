#ifndef FAB_UTIL_FILE_H_
#define FAB_UTIL_FILE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include <unistd.h>

#include "util/status.h"

namespace fab::util {

/// Publishes `bytes` at `path` atomically: writes a sibling temp file,
/// checks that every byte reached it, then renames it over `path`. A
/// reader sees the old file or the whole new one, never a prefix. The
/// temp name carries the pid and a per-process sequence number, so
/// concurrent writers (threads, or processes sharing a directory) never
/// write into each other's temp file; the last rename wins. On failure
/// the temp file is removed and `path` is left as it was.
[[nodiscard]] inline Status WriteFileAtomic(const std::string& path,
                                            std::string_view bytes) {
  static std::atomic<uint64_t> sequence{0};
  const std::string tmp =
      path + ".tmp." + std::to_string(::getpid()) + "." +
      std::to_string(sequence.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IoError("cannot create " + tmp);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.close();
    if (out.fail()) {
      std::remove(tmp.c_str());
      return Status::IoError("write failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " into place as " + path);
  }
  return Status::OK();
}

}  // namespace fab::util

#endif  // FAB_UTIL_FILE_H_
