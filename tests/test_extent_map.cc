/**
 * @file
 * Unit tests for the in-memory extent-map helpers used by nestfs.
 */
#include <gtest/gtest.h>

#include "fs/extent_map.h"
#include "util/rng.h"

namespace nesc::fs {
namespace {

using extent::Extent;
using extent::ExtentList;
using extent::Plba;
using extent::Vlba;

TEST(ExtentMap, LookupEmpty)
{
    ExtentList list;
    EXPECT_FALSE(map_lookup(list, 0).has_value());
    EXPECT_EQ(map_end(list), 0u);
}

TEST(ExtentMap, LookupHitsAndMisses)
{
    ExtentList list = {{0, 4, 100}, {8, 4, 200}};
    EXPECT_EQ(*map_lookup(list, 0), 100u);
    EXPECT_EQ(*map_lookup(list, 3), 103u);
    EXPECT_FALSE(map_lookup(list, 4).has_value());
    EXPECT_EQ(*map_lookup(list, 8), 200u);
    EXPECT_EQ(*map_lookup(list, 11), 203u);
    EXPECT_FALSE(map_lookup(list, 12).has_value());
    EXPECT_EQ(map_end(list), 12u);
}

TEST(ExtentMap, LookupExtentReturnsWholeExtent)
{
    ExtentList list = {{5, 10, 500}};
    auto e = map_lookup_extent(list, 9);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->first_vblock, 5u);
    EXPECT_EQ(e->nblocks, 10u);
}

TEST(ExtentMap, NextMappedSkipsHolesAndStopsInsideExtents)
{
    ExtentList list = {{2, 3, 100}, {10, 1, 200}};
    EXPECT_EQ(*map_next_mapped(list, 0), 2u);
    EXPECT_EQ(*map_next_mapped(list, 3), 3u); // inside an extent
    EXPECT_EQ(*map_next_mapped(list, 5), 10u);
    EXPECT_EQ(*map_next_mapped(list, 10), 10u);
    EXPECT_FALSE(map_next_mapped(list, 11).has_value());
    EXPECT_FALSE(map_next_mapped(ExtentList{}, 0).has_value());
}

TEST(ExtentMap, InsertIntoEmpty)
{
    ExtentList list;
    map_insert_block(list, 7, 70);
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0], (Extent{7, 1, 70}));
}

TEST(ExtentMap, InsertMergesWithPredecessor)
{
    ExtentList list = {{0, 4, 100}};
    map_insert_block(list, 4, 104); // logically AND physically adjacent
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0], (Extent{0, 5, 100}));
}

TEST(ExtentMap, InsertMergesWithSuccessor)
{
    ExtentList list = {{5, 4, 105}};
    map_insert_block(list, 4, 104);
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0], (Extent{4, 5, 104}));
}

TEST(ExtentMap, InsertBridgesBothNeighbours)
{
    ExtentList list = {{0, 4, 100}, {5, 4, 105}};
    map_insert_block(list, 4, 104);
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0], (Extent{0, 9, 100}));
}

TEST(ExtentMap, NoMergeWhenPhysicallyDiscontiguous)
{
    ExtentList list = {{0, 4, 100}};
    map_insert_block(list, 4, 999); // logically adjacent only
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[1], (Extent{4, 1, 999}));
}

TEST(ExtentMap, InsertKeepsSortedOrder)
{
    ExtentList list;
    map_insert_block(list, 10, 1);
    map_insert_block(list, 2, 2);
    map_insert_block(list, 6, 3);
    ASSERT_EQ(list.size(), 3u);
    EXPECT_EQ(list[0].first_vblock, 2u);
    EXPECT_EQ(list[1].first_vblock, 6u);
    EXPECT_EQ(list[2].first_vblock, 10u);
}

TEST(ExtentMap, InsertWholeExtentMerges)
{
    ExtentList list = {{0, 4, 100}};
    map_insert_extent(list, Extent{4, 6, 104});
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0], (Extent{0, 10, 100}));
}

TEST(ExtentMap, RemoveFromEverything)
{
    ExtentList list = {{0, 4, 100}, {8, 4, 200}};
    std::vector<std::pair<Plba, std::uint64_t>> freed;
    map_remove_from(list, 0, freed);
    EXPECT_TRUE(list.empty());
    ASSERT_EQ(freed.size(), 2u);
    EXPECT_EQ(freed[0], std::make_pair(Plba{100}, std::uint64_t{4}));
    EXPECT_EQ(freed[1], std::make_pair(Plba{200}, std::uint64_t{4}));
}

TEST(ExtentMap, RemoveFromSplitsStraddler)
{
    ExtentList list = {{0, 10, 100}};
    std::vector<std::pair<Plba, std::uint64_t>> freed;
    map_remove_from(list, 6, freed);
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0], (Extent{0, 6, 100}));
    ASSERT_EQ(freed.size(), 1u);
    EXPECT_EQ(freed[0], std::make_pair(Plba{106}, std::uint64_t{4}));
}

TEST(ExtentMap, RemoveFromBeyondEndIsNoop)
{
    ExtentList list = {{0, 4, 100}};
    std::vector<std::pair<Plba, std::uint64_t>> freed;
    map_remove_from(list, 10, freed);
    EXPECT_EQ(list.size(), 1u);
    EXPECT_TRUE(freed.empty());
}

TEST(ExtentMap, RemoveFromExactBoundary)
{
    ExtentList list = {{0, 4, 100}, {4, 4, 200}};
    std::vector<std::pair<Plba, std::uint64_t>> freed;
    map_remove_from(list, 4, freed);
    ASSERT_EQ(list.size(), 1u);
    EXPECT_EQ(list[0], (Extent{0, 4, 100}));
    ASSERT_EQ(freed.size(), 1u);
}

TEST(ExtentMap, RemoveRangeSplitsBothEnds)
{
    // [3, 10) cuts the tail off the first extent, takes the middle one
    // whole and the head off the last; nothing outside moves.
    ExtentList list = {{0, 5, 100}, {5, 2, 300}, {8, 4, 200}};
    std::vector<std::pair<Plba, std::uint64_t>> freed;
    map_remove_from(list, 3, freed, 10);
    ASSERT_EQ(list.size(), 2u);
    EXPECT_EQ(list[0], (Extent{0, 3, 100}));
    EXPECT_EQ(list[1], (Extent{10, 2, 202}));
    ASSERT_EQ(freed.size(), 3u);
    EXPECT_EQ(freed[0], std::make_pair(Plba{103}, std::uint64_t{2}));
    EXPECT_EQ(freed[1], std::make_pair(Plba{300}, std::uint64_t{2}));
    EXPECT_EQ(freed[2], std::make_pair(Plba{200}, std::uint64_t{2}));

    // Inside one extent: it splits in two.
    list = {{0, 10, 100}};
    freed.clear();
    map_remove_from(list, 4, freed, 6);
    EXPECT_EQ(list, (ExtentList{{0, 4, 100}, {6, 4, 106}}));
    EXPECT_EQ(freed.size(), 1u);
}

TEST(ExtentMapProperty, RandomInsertsMatchFlatReference)
{
    util::Rng rng(99);
    for (int trial = 0; trial < 20; ++trial) {
        // Random permutation of block -> pblock mappings.
        const std::uint64_t n = 64;
        std::vector<Plba> pblock(n);
        for (std::uint64_t i = 0; i < n; ++i)
            pblock[i] = rng.next_bool(0.5) ? 1000 + i /* contiguous run */
                                           : 5000 + rng.next_below(100000);
        std::vector<std::uint64_t> order(n);
        for (std::uint64_t i = 0; i < n; ++i)
            order[i] = i;
        for (std::uint64_t i = n; i > 1; --i)
            std::swap(order[i - 1], order[rng.next_below(i)]);

        ExtentList list;
        for (std::uint64_t v : order)
            map_insert_block(list, v, pblock[v]);

        ASSERT_TRUE(extent::is_valid_extent_list(list));
        EXPECT_EQ(extent::total_mapped_blocks(list), n);
        for (std::uint64_t v = 0; v < n; ++v)
            ASSERT_EQ(*map_lookup(list, v), pblock[v]) << "v=" << v;
        // Coalescing must have produced strictly fewer extents than
        // blocks whenever a contiguous run existed.
        bool has_contiguous = false;
        for (std::uint64_t v = 1; v < n; ++v)
            has_contiguous |= pblock[v] == pblock[v - 1] + 1;
        if (has_contiguous) {
            EXPECT_LT(list.size(), n);
        }
    }
}

} // namespace
} // namespace nesc::fs
