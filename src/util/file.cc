#include "util/file.h"

#include <cstdio>

namespace repro {

bool WriteFile(const std::string& path, std::string_view content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool written =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  return std::fclose(f) == 0 && written;
}

}  // namespace repro
