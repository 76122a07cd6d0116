#include "common/csv.hh"

#include "common/io/durable_file.hh"
#include "common/logging.hh"
#include "common/table.hh"

namespace adrias
{

CsvWriter::CsvWriter(const std::string &path_) : path(path_)
{
    // Fail fast like the streaming writer did (and truncate any stale
    // file): an atomic empty write probes the directory and the temp
    // path the final publication will use.
    Result<void> probe = io::atomicWriteFile(path, "");
    if (!probe.ok())
        fatal("CsvWriter: cannot open '" + path +
              "' for writing: " + probe.error().toString());
}

CsvWriter::~CsvWriter()
{
    if (!openForWriting)
        return;
    // Destructors must not throw; close() is the error-checked path.
    if (Result<void> published = io::atomicWriteFile(path, buffer);
        !published.ok())
        logError("CsvWriter: dropping " + std::to_string(rowsWritten) +
                 " rows: " + published.error().toString());
}

std::string
CsvWriter::escape(const std::string &cell)
{
    const bool needs_quoting =
        cell.find_first_of(",\"\n\r") != std::string::npos;
    if (!needs_quoting)
        return cell;
    std::string quoted = "\"";
    for (char ch : cell) {
        if (ch == '"')
            quoted += '"';
        quoted += ch;
    }
    quoted += '"';
    return quoted;
}

void
CsvWriter::writeRow(const std::vector<std::string> &cells)
{
    if (!openForWriting)
        panic("CsvWriter::writeRow after close()");
    for (std::size_t i = 0; i < cells.size(); ++i) {
        buffer += escape(cells[i]);
        if (i + 1 < cells.size())
            buffer += ',';
    }
    buffer += '\n';
    ++rowsWritten;
}

void
CsvWriter::writeRow(const std::string &label,
                    const std::vector<double> &values)
{
    std::vector<std::string> cells;
    cells.reserve(values.size() + 1);
    cells.push_back(label);
    for (double v : values)
        cells.push_back(formatDouble(v, 6));
    writeRow(cells);
}

void
CsvWriter::close()
{
    if (!openForWriting)
        return;
    openForWriting = false;
    Result<void> published = io::atomicWriteFile(path, buffer);
    if (!published.ok())
        fatal("CsvWriter: cannot publish '" + path +
              "': " + published.error().toString());
}

} // namespace adrias
