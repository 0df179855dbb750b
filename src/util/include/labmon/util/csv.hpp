// CSV reading/writing used for trace persistence and figure data export.
// Handles RFC-4180-style quoting (fields containing separator, quote or
// newline are quoted; embedded quotes doubled).
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "labmon/util/expected.hpp"

namespace labmon::util {

/// Escapes one field for CSV output (quotes only when needed).
[[nodiscard]] std::string CsvEscape(std::string_view field, char sep = ',');

/// Splits one CSV record (no trailing newline) honouring quotes.
[[nodiscard]] std::vector<std::string> CsvSplit(std::string_view line,
                                                char sep = ',');

/// Streaming CSV writer.
class CsvWriter {
 public:
  /// Writes to the given stream, which must outlive the writer.
  explicit CsvWriter(std::ostream& out, char sep = ',') noexcept
      : out_(&out), sep_(sep) {}

  void WriteRow(const std::vector<std::string>& fields);

  /// Convenience variadic row: every argument is streamed to a string.
  template <typename... Args>
  void Row(Args&&... args) {
    std::vector<std::string> fields;
    fields.reserve(sizeof...(args));
    (fields.push_back(Stringify(std::forward<Args>(args))), ...);
    WriteRow(fields);
  }

  [[nodiscard]] std::size_t rows_written() const noexcept { return rows_; }

 private:
  template <typename T>
  static std::string Stringify(T&& value) {
    if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(std::forward<T>(value));
    } else {
      return ToStringImpl(std::forward<T>(value));
    }
  }
  template <typename T>
  static std::string ToStringImpl(const T& value) {
    return std::to_string(value);
  }

  std::ostream* out_;
  char sep_;
  std::size_t rows_ = 0;
};

/// Fully-parsed CSV document.
struct CsvDocument {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a header column, or npos.
  [[nodiscard]] std::size_t ColumnIndex(std::string_view name) const noexcept;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
};

/// Parses CSV text (first record = header). Tolerates trailing newline and
/// CRLF line endings; fails on unbalanced quotes.
[[nodiscard]] Result<CsvDocument> ParseCsv(std::string_view text,
                                           char sep = ',');

/// Reads and parses a CSV file from disk.
[[nodiscard]] Result<CsvDocument> ReadCsvFile(const std::string& path,
                                              char sep = ',');

/// Writes an entire string to a file, failing loudly.
[[nodiscard]] Result<bool> WriteTextFile(const std::string& path,
                                         std::string_view content);

/// Reads an entire file into a string, byte for byte, with one sized read
/// (an unseekable input such as a pipe is streamed instead).
[[nodiscard]] Result<std::string> ReadTextFile(const std::string& path);

}  // namespace labmon::util
