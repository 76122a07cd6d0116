/**
 * @file
 * Small CSV writer used by benches and examples to dump series for
 * offline plotting.
 */

#ifndef ADRIAS_COMMON_CSV_HH
#define ADRIAS_COMMON_CSV_HH

#include <string>
#include <vector>

namespace adrias
{

/**
 * CSV writer with atomic publication.
 *
 * Rows accumulate in memory and the whole file is published with one
 * DurableFile temp-write + rename on close() (or destruction), so a
 * crash mid-dump never leaves a half-written CSV behind.
 *
 * Cells containing commas, quotes or newlines are quoted per RFC 4180.
 */
class CsvWriter
{
  public:
    /**
     * Claim the target path (truncates it, like the historical
     * streaming writer, so a stale file never outlives a new run).
     *
     * @throws std::runtime_error when the path cannot be written.
     */
    explicit CsvWriter(const std::string &path);

    /** Publishes pending rows (best effort; close() to observe errors). */
    ~CsvWriter();

    CsvWriter(const CsvWriter &) = delete;
    CsvWriter &operator=(const CsvWriter &) = delete;

    /** Write one row of raw string cells. */
    void writeRow(const std::vector<std::string> &cells);

    /** Write a labelled numeric row. */
    void writeRow(const std::string &label,
                  const std::vector<double> &values);

    /**
     * Atomically publish the accumulated rows; further writes are
     * invalid.
     *
     * @throws std::runtime_error when the write fails.
     */
    void close();

    /** Quote a cell if needed (exposed for testing). */
    static std::string escape(const std::string &cell);

  private:
    std::string path;
    std::string buffer;
    bool openForWriting = true;
    std::size_t rowsWritten = 0;
};

} // namespace adrias

#endif // ADRIAS_COMMON_CSV_HH
