#include "labmon/util/csv.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

namespace labmon::util {

std::string CsvEscape(std::string_view field, char sep) {
  const bool needs_quotes =
      field.find(sep) != std::string_view::npos ||
      field.find('"') != std::string_view::npos ||
      field.find('\n') != std::string_view::npos ||
      field.find('\r') != std::string_view::npos;
  if (!needs_quotes) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (const char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::vector<std::string> CsvSplit(std::string_view line, char sep) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

void CsvWriter::WriteRow(const std::vector<std::string>& fields) {
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i != 0) *out_ << sep_;
    *out_ << CsvEscape(fields[i], sep_);
  }
  *out_ << '\n';
  ++rows_;
}

std::size_t CsvDocument::ColumnIndex(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  return npos;
}

Result<CsvDocument> ParseCsv(std::string_view text, char sep) {
  CsvDocument doc;
  std::size_t start = 0;
  bool first = true;
  while (start <= text.size()) {
    if (start == text.size()) break;
    // Find end of record, respecting quotes.
    bool in_quotes = false;
    std::size_t end = start;
    while (end < text.size()) {
      const char c = text[end];
      if (c == '"') in_quotes = !in_quotes;
      if (c == '\n' && !in_quotes) break;
      ++end;
    }
    if (in_quotes) return Result<CsvDocument>::Err("unbalanced quotes in CSV");
    std::string_view line = text.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty() || !first) {
      auto fields = CsvSplit(line, sep);
      if (first) {
        doc.header = std::move(fields);
        first = false;
      } else {
        doc.rows.push_back(std::move(fields));
      }
    }
    start = end + 1;
  }
  if (first) return Result<CsvDocument>::Err("empty CSV document");
  return doc;
}

Result<CsvDocument> ReadCsvFile(const std::string& path, char sep) {
  auto text = ReadTextFile(path);
  if (!text.ok()) return Result<CsvDocument>::Err(text.error());
  return ParseCsv(text.value(), sep);
}

Result<bool> WriteTextFile(const std::string& path, std::string_view content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Result<bool>::Err("cannot open for write: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Result<bool>::Err("write failed: " + path);
  return true;
}

Result<std::string> ReadTextFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Result<std::string>::Err("cannot open for read: " + path);
  // One sized read; only an unseekable input (a pipe) is streamed.
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  if (size < 0) {
    in.clear();
    std::ostringstream oss;
    oss << in.rdbuf();
    return oss.str();
  }
  in.seekg(0);
  std::string bytes(static_cast<std::size_t>(size), '\0');
  in.read(bytes.data(), size);
  if (in.gcount() != size) {
    return Result<std::string>::Err("short read: " + path);
  }
  return bytes;
}

}  // namespace labmon::util
