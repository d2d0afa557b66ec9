#include "extent_map.h"

#include <algorithm>
#include <cassert>

namespace nesc::fs {

using extent::Extent;
using extent::ExtentList;
using extent::Plba;
using extent::Vlba;

namespace {

/**
 * Index of the first extent with end_vblock() > vblock. Extents are
 * sorted and non-overlapping, so end_vblock() is monotone and the
 * predicate below is partitioned.
 */
std::size_t
upper_index(const ExtentList &extents, Vlba vblock)
{
    auto it = std::partition_point(
        extents.begin(), extents.end(),
        [vblock](const Extent &e) { return e.end_vblock() <= vblock; });
    return static_cast<std::size_t>(it - extents.begin());
}

} // namespace

std::optional<Extent>
map_lookup_extent(const ExtentList &extents, Vlba vblock)
{
    const std::size_t i = upper_index(extents, vblock);
    if (i < extents.size() && extents[i].contains(vblock))
        return extents[i];
    return std::nullopt;
}

std::optional<Plba>
map_lookup(const ExtentList &extents, Vlba vblock)
{
    auto e = map_lookup_extent(extents, vblock);
    if (!e)
        return std::nullopt;
    return e->translate(vblock);
}

std::optional<Vlba>
map_next_mapped(const ExtentList &extents, Vlba vblock)
{
    const std::size_t i = upper_index(extents, vblock);
    if (i == extents.size())
        return std::nullopt;
    return std::max(extents[i].first_vblock, vblock);
}

void
map_insert_extent(ExtentList &extents, const Extent &e)
{
    assert(e.nblocks > 0);
    // Position of the first extent starting at or after e.
    auto it = std::lower_bound(extents.begin(), extents.end(), e,
                               [](const Extent &a, const Extent &b) {
                                   return a.first_vblock < b.first_vblock;
                               });
    std::size_t i = static_cast<std::size_t>(it - extents.begin());

    // Try merging with the predecessor: logically and physically
    // contiguous runs become one extent.
    if (i > 0) {
        Extent &prev = extents[i - 1];
        if (prev.end_vblock() == e.first_vblock &&
            prev.first_pblock + prev.nblocks == e.first_pblock) {
            prev.nblocks += e.nblocks;
            // The grown predecessor may now touch the successor.
            if (i < extents.size()) {
                const Extent &next = extents[i];
                if (prev.end_vblock() == next.first_vblock &&
                    prev.first_pblock + prev.nblocks == next.first_pblock) {
                    prev.nblocks += next.nblocks;
                    extents.erase(extents.begin() +
                                  static_cast<std::ptrdiff_t>(i));
                }
            }
            return;
        }
    }
    // Try merging with the successor.
    if (i < extents.size()) {
        Extent &next = extents[i];
        if (e.end_vblock() == next.first_vblock &&
            e.first_pblock + e.nblocks == next.first_pblock) {
            next.first_vblock = e.first_vblock;
            next.first_pblock = e.first_pblock;
            next.nblocks += e.nblocks;
            return;
        }
    }
    extents.insert(extents.begin() + static_cast<std::ptrdiff_t>(i), e);
}

void
map_insert_block(ExtentList &extents, Vlba vblock, Plba pblock)
{
    assert(!map_lookup(extents, vblock).has_value());
    map_insert_extent(extents, Extent{vblock, 1, pblock});
}

void
map_remove_from(ExtentList &extents, Vlba from_vblock,
                std::vector<std::pair<Plba, std::uint64_t>> &freed,
                Vlba to_vblock)
{
    const std::size_t first = upper_index(extents, from_vblock);
    std::size_t last = first;
    // Parts of the removed extents outside the range: at most a head
    // of the first and a tail of the last.
    Extent kept[2]{};
    std::size_t nkept = 0;
    for (; last < extents.size() && extents[last].first_vblock < to_vblock;
         ++last) {
        const Extent &e = extents[last];
        const Vlba lo = std::max(e.first_vblock, from_vblock);
        const Vlba hi = std::min(e.end_vblock(), to_vblock);
        freed.emplace_back(e.translate(lo), hi - lo);
        if (e.first_vblock < lo)
            kept[nkept++] = Extent{e.first_vblock, lo - e.first_vblock,
                                   e.first_pblock};
        if (hi < e.end_vblock())
            kept[nkept++] = Extent{hi, e.end_vblock() - hi, e.translate(hi)};
    }
    extents.erase(extents.begin() + static_cast<std::ptrdiff_t>(first),
                  extents.begin() + static_cast<std::ptrdiff_t>(last));
    extents.insert(extents.begin() + static_cast<std::ptrdiff_t>(first),
                   kept, kept + nkept);
}

Vlba
map_end(const ExtentList &extents)
{
    return extents.empty() ? 0 : extents.back().end_vblock();
}

} // namespace nesc::fs
