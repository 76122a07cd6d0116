#include "common/table.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/logging.hh"

namespace adrias
{

TextTable::TextTable(std::vector<std::string> header_)
    : header(std::move(header_))
{
    if (header.empty())
        fatal("TextTable requires at least one column");
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != header.size())
        fatal("TextTable row width mismatch");
    rows.push_back(std::move(cells));
}

void
TextTable::addRow(const std::string &label,
                  const std::vector<double> &values, int precision)
{
    std::vector<std::string> cells;
    cells.reserve(values.size() + 1);
    cells.push_back(label);
    for (double v : values)
        cells.push_back(formatDouble(v, precision));
    addRow(std::move(cells));
}

std::string
TextTable::toString() const
{
    std::vector<std::size_t> widths(header.size());
    for (std::size_t c = 0; c < header.size(); ++c)
        widths[c] = header[c].size();
    for (const auto &row : rows)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    std::ostringstream out;
    auto emit_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            out << cells[c];
            if (c + 1 < cells.size())
                out << std::string(widths[c] - cells[c].size() + 2, ' ');
        }
        out << "\n";
    };

    emit_row(header);
    std::size_t total = 0;
    for (std::size_t c = 0; c < widths.size(); ++c)
        total += widths[c] + (c + 1 < widths.size() ? 2 : 0);
    out << std::string(total, '-') << "\n";
    for (const auto &row : rows)
        emit_row(row);
    return out.str();
}

std::string
formatDouble(double value, int precision)
{
    std::ostringstream out;
    if (std::isnan(value)) {
        // Empty-sample statistics (mean/quantile of nothing) are NaN
        // by contract; report tables render them as "n/a", never as a
        // number that could be mistaken for a measurement.
        out << "n/a";
    } else {
        out.setf(std::ios::fixed);
        out.precision(precision);
        out << value;
    }
    return out.str();
}

} // namespace adrias
