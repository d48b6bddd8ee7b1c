// Strict command-line number parsing shared by the CLIs.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <limits>

namespace orderless::cli {

/// A decimal integer that fills all of `s` and fits `T`; no sign.
template <typename T>
bool ParseUint(const char* s, T& out) {
  if (*s < '0' || *s > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (*end != '\0' || errno != 0 ||
      v > static_cast<unsigned long long>(std::numeric_limits<T>::max())) {
    return false;
  }
  out = static_cast<T>(v);
  return true;
}

}  // namespace orderless::cli
