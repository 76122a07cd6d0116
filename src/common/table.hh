/**
 * @file
 * Plain-text table formatting for bench binaries.
 *
 * Every bench prints the rows/series of one paper table or figure; this
 * helper keeps the output aligned and uniform across binaries.
 */

#ifndef ADRIAS_COMMON_TABLE_HH
#define ADRIAS_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace adrias
{

/**
 * Column-aligned text table builder.
 *
 * Usage: construct with header cells, addRow() repeatedly, then print
 * toString() to stdout.
 */
class TextTable
{
  public:
    /** @param header column titles; fixes the column count. */
    explicit TextTable(std::vector<std::string> header);

    /**
     * Append one row.
     *
     * @param cells must have exactly as many entries as the header.
     */
    void addRow(std::vector<std::string> cells);

    /** Append a row of already-formatted numeric cells. */
    void addRow(const std::string &label, const std::vector<double> &values,
                int precision = 3);

    /** @return the formatted table, newline-terminated. */
    std::string toString() const;

  private:
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;
};

/** Format a double with fixed precision (bench-table convention). */
std::string formatDouble(double value, int precision = 3);

} // namespace adrias

#endif // ADRIAS_COMMON_TABLE_HH
