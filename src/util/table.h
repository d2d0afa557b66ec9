/**
 * @file
 * Aligned plain-text table printer used by the benchmark harness to
 * emit the rows/series of each reproduced paper table and figure.
 */
#ifndef NESC_UTIL_TABLE_H
#define NESC_UTIL_TABLE_H

#include <cstdint>
#include <string>
#include <vector>

namespace nesc::util {

/** Column-aligned table with a header row; also serializes to CSV. */
class Table {
  public:
    /** Creates a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);

    /** Starts a new row; subsequent add() calls fill it left to right. */
    Table &row();

    Table &add(const std::string &cell);
    Table &add(const char *cell);
    Table &add(std::uint64_t v);
    Table &add(std::int64_t v);
    Table &add(int v) { return add(static_cast<std::int64_t>(v)); }
    Table &add(unsigned v) { return add(static_cast<std::uint64_t>(v)); }
    /** Fixed-point with @p precision digits after the decimal point. */
    Table &add(double v, int precision = 2);

    std::size_t num_rows() const { return rows_.size(); }

    /** Renders with padded columns and a separator under the header. */
    std::string to_string() const;
    /** Renders as comma-separated values (no escaping; cells are simple). */
    std::string to_csv() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

} // namespace nesc::util

#endif // NESC_UTIL_TABLE_H
