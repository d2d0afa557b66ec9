#include "types.h"

namespace nesc::extent {

bool
is_valid_extent_list(const ExtentList &extents)
{
    for (std::size_t i = 0; i < extents.size(); ++i) {
        if (extents[i].nblocks == 0)
            return false;
        if (i > 0 && extents[i].first_vblock < extents[i - 1].end_vblock())
            return false;
    }
    return true;
}

std::uint64_t
total_mapped_blocks(const ExtentList &extents)
{
    std::uint64_t total = 0;
    for (const auto &e : extents)
        total += e.nblocks;
    return total;
}

} // namespace nesc::extent
