/**
 * @file
 * Pure in-memory manipulation of a file's extent mapping.
 *
 * nestfs keeps each cached inode's mapping as a sorted extent::ExtentList
 * (vblock = offset in the file, in fs blocks; pblock = volume block).
 * These helpers implement lookup, insertion with physical/logical
 * coalescing, and range removal — the same operations ext4 performs on
 * its extent trees, expressed on the flat list representation.
 */
#ifndef NESC_FS_EXTENT_MAP_H
#define NESC_FS_EXTENT_MAP_H

#include <cstdint>
#include <limits>
#include <optional>

#include "extent/types.h"

namespace nesc::fs {

/** Physical block holding file block @p vblock, if mapped. */
std::optional<extent::Plba> map_lookup(const extent::ExtentList &extents,
                                       extent::Vlba vblock);

/**
 * The extent containing @p vblock, if mapped (gives the caller the
 * remaining contiguous run length as well).
 */
std::optional<extent::Extent>
map_lookup_extent(const extent::ExtentList &extents, extent::Vlba vblock);

/** First mapped file block at or after @p vblock, if any. */
std::optional<extent::Vlba> map_next_mapped(const extent::ExtentList &extents,
                                            extent::Vlba vblock);

/**
 * Inserts the single-block mapping vblock -> pblock, coalescing with a
 * neighbouring extent when both the logical and physical addresses are
 * contiguous. The block must not already be mapped.
 */
void map_insert_block(extent::ExtentList &extents, extent::Vlba vblock,
                      extent::Plba pblock);

/**
 * Inserts a whole extent (caller guarantees no overlap), coalescing
 * with neighbours where possible.
 */
void map_insert_extent(extent::ExtentList &extents, const extent::Extent &e);

/**
 * Removes all mappings with vblock in [@p from_vblock, @p to_vblock)
 * (by default, everything from @p from_vblock on: truncate), splitting
 * extents that straddle either end. Appends the freed physical ranges
 * to @p freed as (first_pblock, nblocks) pairs.
 */
void map_remove_from(
    extent::ExtentList &extents, extent::Vlba from_vblock,
    std::vector<std::pair<extent::Plba, std::uint64_t>> &freed,
    extent::Vlba to_vblock = std::numeric_limits<extent::Vlba>::max());

/** Highest mapped vblock + 1; 0 for an empty mapping. */
extent::Vlba map_end(const extent::ExtentList &extents);

} // namespace nesc::fs

#endif // NESC_FS_EXTENT_MAP_H
