// The one reader for unsigned numbers in text inputs: command-line
// flags, trace files and fuzz reproducers.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mcsim {

/// Reads `text` (decimal, 0x-hex or 0-octal) into `out`. A sign,
/// trailing text or a value outside [min, max] returns false and sets
/// `err`, which names `what`.
bool parse_uint(const std::string& text, std::string_view what, std::uint64_t min,
                std::uint64_t max, std::uint64_t& out, std::string& err);

}  // namespace mcsim
