/**
 * @file
 * CRC32C (Castagnoli, polynomial 0x1EDC6F41) — the checksum used by
 * every integrity feature in the tree: the per-pLBA data sidecar
 * (storage::IntegrityMap), extent-tree v2 node trailers, and nestfs
 * metadata block checksums.
 *
 * Table-driven slicing-by-8 software implementation (eight 1 KiB
 * tables, eight input bytes per step) and the only path: there is no
 * SSE4.2 dispatch, so the simulator is bit-identical across hosts. The polynomial matches
 * iSCSI/ext4/Btrfs so sidecar images are what real storage stacks
 * would persist.
 */
#ifndef NESC_UTIL_CRC32C_H
#define NESC_UTIL_CRC32C_H

#include <cstddef>
#include <cstdint>
#include <span>

namespace nesc::util {

/**
 * CRC32C of @p data continuing from @p seed (pass the previous return
 * value to checksum discontiguous pieces as one logical stream). The
 * seed/result are the conventional post-inverted form: crc32c(x) of a
 * whole buffer equals crc32c(x, 0).
 */
std::uint32_t crc32c(std::span<const std::byte> data,
                     std::uint32_t seed = 0);

/** Convenience overload for raw pointer + length. */
inline std::uint32_t
crc32c(const void *data, std::size_t size, std::uint32_t seed = 0)
{
    return crc32c(
        std::span<const std::byte>(static_cast<const std::byte *>(data),
                                   size),
        seed);
}

} // namespace nesc::util

#endif // NESC_UTIL_CRC32C_H
