#include "common/parse_uint.hpp"

#include <cerrno>
#include <cstdlib>

namespace mcsim {

bool parse_uint(const std::string& text, std::string_view what, std::uint64_t min,
                std::uint64_t max, std::uint64_t& out, std::string& err) {
  // strtoull would skip leading blanks and negate a leading '-'.
  const bool digit = !text.empty() && text[0] >= '0' && text[0] <= '9';
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = digit ? std::strtoull(text.c_str(), &end, 0) : 0;
  if (end == nullptr || *end != '\0' || errno == ERANGE || v < min || v > max) {
    err = "bad " + std::string(what) + ": '" + text + "' (expected an integer from " +
          std::to_string(min) + " to " + std::to_string(max) + ")";
    return false;
  }
  out = v;
  return true;
}

}  // namespace mcsim
