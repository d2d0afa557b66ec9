/**
 * @file
 * Core extent-mapping value types.
 *
 * NeSC names block addresses from the client's and the host's point of
 * view (paper §IV.B): a vLBA is an offset (in device blocks) into the
 * virtual disk a VF exports — equivalently into the backing host file —
 * and a pLBA is a block of the physical storage device. The mapping
 * between them is a set of extents: runs of contiguous physical blocks.
 */
#ifndef NESC_EXTENT_TYPES_H
#define NESC_EXTENT_TYPES_H

#include <compare>
#include <cstdint>
#include <vector>

namespace nesc::extent {

/** Virtual logical block address: block offset in a virtual device. */
using Vlba = std::uint64_t;

/** Physical logical block address: block on the physical device. */
using Plba = std::uint64_t;

/** A contiguous vLBA range mapped to a contiguous pLBA range. */
struct Extent {
    Vlba first_vblock = 0;
    std::uint64_t nblocks = 0;
    Plba first_pblock = 0;

    auto operator<=>(const Extent &) const = default;

    /** One past the last covered vblock. */
    Vlba end_vblock() const { return first_vblock + nblocks; }

    /** True if @p vlba falls inside this extent. */
    bool
    contains(Vlba vlba) const
    {
        return vlba >= first_vblock && vlba < end_vblock();
    }

    /** Translates @p vlba, which must be inside this extent. */
    Plba translate(Vlba vlba) const
    {
        return first_pblock + (vlba - first_vblock);
    }
};

/** A sorted, non-overlapping extent list (what a FIEMAP query returns). */
using ExtentList = std::vector<Extent>;

/**
 * Validates that @p extents are sorted by first_vblock and do not
 * overlap in vLBA space. Gaps are allowed — they are file holes.
 */
bool is_valid_extent_list(const ExtentList &extents);

/** Sums nblocks over the list. */
std::uint64_t total_mapped_blocks(const ExtentList &extents);

} // namespace nesc::extent

#endif // NESC_EXTENT_TYPES_H
