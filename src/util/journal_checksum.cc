#include "util/journal_checksum.h"

#include <array>
#include <cstddef>

namespace nesc::util {

namespace {

constexpr std::uint64_t kBase = 131;

/** kPow[i] = 131^i mod 2^64. */
constexpr std::array<std::uint64_t, 9> kPow = [] {
    std::array<std::uint64_t, 9> pow{};
    pow[0] = 1;
    for (std::size_t i = 1; i < pow.size(); ++i)
        pow[i] = pow[i - 1] * kBase;
    return pow;
}();

constexpr std::uint64_t
u64(std::byte b)
{
    return static_cast<std::uint64_t>(b);
}

} // namespace

std::uint64_t
journal_checksum(std::span<const std::byte> data)
{
    std::uint64_t sum = 0;
    const std::byte *p = data.data();
    std::size_t n = data.size();
    for (; n >= 8; p += 8, n -= 8) {
        sum = sum * kPow[8] + u64(p[0]) * kPow[7] + u64(p[1]) * kPow[6] +
              u64(p[2]) * kPow[5] + u64(p[3]) * kPow[4] +
              u64(p[4]) * kPow[3] + u64(p[5]) * kPow[2] +
              u64(p[6]) * kPow[1] + u64(p[7]);
    }
    for (; n > 0; --n)
        sum = sum * kBase + u64(*p++);
    return sum;
}

} // namespace nesc::util
