#include "util/crc32c.h"

#include <array>

namespace nesc::util {

namespace {

constexpr std::uint32_t kPoly = 0x82f63b78u; // reflected 0x1EDC6F41

/** 8 slicing tables, generated at compile time (constexpr). */
struct Crc32cTables {
    std::array<std::array<std::uint32_t, 256>, 8> t{};

    constexpr Crc32cTables()
    {
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
            t[0][i] = crc;
        }
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = t[0][i];
            for (std::size_t k = 1; k < 8; ++k) {
                crc = (crc >> 8) ^ t[0][crc & 0xff];
                t[k][i] = crc;
            }
        }
    }
};

constexpr Crc32cTables kTables{};

/** Little-endian load, independent of host byte order. */
std::uint32_t
load_le32(const std::byte *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

} // namespace

std::uint32_t
crc32c(std::span<const std::byte> data, std::uint32_t seed)
{
    std::uint32_t crc = ~seed;
    const std::byte *p = data.data();
    std::size_t n = data.size();

    while (n >= 8) {
        const std::uint32_t lo = crc ^ load_le32(p);
        const std::uint32_t hi = load_le32(p + 4);
        crc = kTables.t[7][lo & 0xff] ^ kTables.t[6][(lo >> 8) & 0xff] ^
              kTables.t[5][(lo >> 16) & 0xff] ^ kTables.t[4][lo >> 24] ^
              kTables.t[3][hi & 0xff] ^ kTables.t[2][(hi >> 8) & 0xff] ^
              kTables.t[1][(hi >> 16) & 0xff] ^ kTables.t[0][hi >> 24];
        p += 8;
        n -= 8;
    }
    while (n-- > 0) {
        crc = (crc >> 8) ^
              kTables.t[0][(crc ^ static_cast<std::uint32_t>(*p++)) & 0xff];
    }
    return ~crc;
}

} // namespace nesc::util
