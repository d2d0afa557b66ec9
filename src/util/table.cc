#include "table.h"

#include <algorithm>
#include <cstdio>

namespace nesc::util {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers))
{
}

Table &
Table::row()
{
    rows_.emplace_back();
    return *this;
}

Table &
Table::add(const std::string &cell)
{
    if (rows_.empty())
        rows_.emplace_back();
    rows_.back().push_back(cell);
    return *this;
}

Table &
Table::add(const char *cell)
{
    return add(std::string(cell));
}

Table &
Table::add(std::uint64_t v)
{
    return add(std::to_string(v));
}

Table &
Table::add(std::int64_t v)
{
    return add(std::to_string(v));
}

Table &
Table::add(double v, int precision)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return add(std::string(buf));
}

std::string
Table::to_string() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto emit_row = [&](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < widths.size(); ++c) {
            const std::string &cell = c < row.size() ? row[c] : std::string();
            line += cell;
            if (c + 1 < widths.size())
                line += std::string(widths[c] - cell.size() + 2, ' ');
        }
        // Trim trailing spaces.
        while (!line.empty() && line.back() == ' ')
            line.pop_back();
        line += '\n';
        return line;
    };

    std::string out = emit_row(headers_);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    out += std::string(total, '-');
    out += '\n';
    for (const auto &row : rows_)
        out += emit_row(row);
    return out;
}

std::string
Table::to_csv() const
{
    auto emit = [](const std::vector<std::string> &row) {
        std::string line;
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                line += ',';
            line += row[c];
        }
        line += '\n';
        return line;
    };
    std::string out = emit(headers_);
    for (const auto &row : rows_)
        out += emit(row);
    return out;
}

} // namespace nesc::util
