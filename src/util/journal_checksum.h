/**
 * @file
 * The journal payload checksum shared by the nestfs journal
 * (fs::Journal) and the replicated blockstore's journal
 * (repl::JournaledBlockstore): the rolling sum `sum = sum * 131 + b`
 * over the payload bytes, mod 2^64. Cheap, order-sensitive, and plenty
 * to detect a torn payload in the simulator.
 *
 * Computed as Horner's rule over 8-byte groups with the constants
 * 131^1..131^8, so one group costs one dependent multiply instead of
 * eight; the value is identical to the byte-serial form mod 2^64.
 */
#ifndef NESC_UTIL_JOURNAL_CHECKSUM_H
#define NESC_UTIL_JOURNAL_CHECKSUM_H

#include <cstdint>
#include <span>

namespace nesc::util {

/** The rolling journal checksum of @p data; see file comment. */
std::uint64_t journal_checksum(std::span<const std::byte> data);

} // namespace nesc::util

#endif // NESC_UTIL_JOURNAL_CHECKSUM_H
