#include "labmon/util/csv.hpp"

#include <sstream>

#include <gtest/gtest.h>

namespace labmon::util {
namespace {

TEST(CsvEscapeTest, PlainFieldUnchanged) {
  EXPECT_EQ(CsvEscape("hello"), "hello");
  EXPECT_EQ(CsvEscape("123"), "123");
}

TEST(CsvEscapeTest, QuotesWhenNeeded) {
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(CsvEscape("line\nbreak"), "\"line\nbreak\"");
}

TEST(CsvSplitTest, BasicRecord) {
  const auto fields = CsvSplit("a,b,c");
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(CsvSplitTest, QuotedFieldWithSeparator) {
  const auto fields = CsvSplit("\"a,b\",c");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "a,b");
  EXPECT_EQ(fields[1], "c");
}

TEST(CsvSplitTest, EscapedQuotes) {
  const auto fields = CsvSplit("\"say \"\"hi\"\"\",x");
  ASSERT_EQ(fields.size(), 2u);
  EXPECT_EQ(fields[0], "say \"hi\"");
}

TEST(CsvSplitTest, RoundTripWithEscape) {
  const std::vector<std::string> inputs{"plain", "with,comma", "with\"quote",
                                        "multi\nline", ""};
  std::string line;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (i) line += ',';
    line += CsvEscape(inputs[i]);
  }
  const auto fields = CsvSplit(line);
  ASSERT_EQ(fields.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    EXPECT_EQ(fields[i], inputs[i]) << "field " << i;
  }
}

TEST(CsvWriterTest, WritesRowsWithVariadicApi) {
  std::ostringstream oss;
  CsvWriter w(oss);
  w.Row("a", 1, 2.5);
  w.Row("x,y", "z");
  EXPECT_EQ(oss.str(), "a,1,2.500000\n\"x,y\",z\n");
  EXPECT_EQ(w.rows_written(), 2u);
}

TEST(ParseCsvTest, HeaderAndRows) {
  const auto doc = ParseCsv("h1,h2\n1,2\n3,4\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().header.size(), 2u);
  ASSERT_EQ(doc.value().rows.size(), 2u);
  EXPECT_EQ(doc.value().rows[1][1], "4");
}

TEST(ParseCsvTest, HandlesCrLf) {
  const auto doc = ParseCsv("h1,h2\r\na,b\r\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().header[1], "h2");
  EXPECT_EQ(doc.value().rows[0][0], "a");
}

TEST(ParseCsvTest, QuotedNewlineInsideField) {
  const auto doc = ParseCsv("h\n\"a\nb\"\n");
  ASSERT_TRUE(doc.ok());
  ASSERT_EQ(doc.value().rows.size(), 1u);
  EXPECT_EQ(doc.value().rows[0][0], "a\nb");
}

TEST(ParseCsvTest, EmptyDocumentFails) {
  EXPECT_FALSE(ParseCsv("").ok());
}

TEST(ParseCsvTest, UnbalancedQuotesFail) {
  EXPECT_FALSE(ParseCsv("h\n\"unterminated\n").ok());
}

TEST(CsvDocumentTest, ColumnIndex) {
  const auto doc = ParseCsv("alpha,beta,gamma\n1,2,3\n");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().ColumnIndex("beta"), 1u);
  EXPECT_EQ(doc.value().ColumnIndex("missing"), CsvDocument::npos);
}

TEST(FileIoTest, WriteAndReadBack) {
  const std::string path = ::testing::TempDir() + "/labmon_csv_test.csv";
  ASSERT_TRUE(WriteTextFile(path, "h\n42\n").ok());
  const auto text = ReadTextFile(path);
  ASSERT_TRUE(text.ok());
  EXPECT_EQ(text.value(), "h\n42\n");
  const auto doc = ReadCsvFile(path);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value().rows[0][0], "42");
}

TEST(FileIoTest, EmptyFileReadsAsEmptyString) {
  const std::string path = ::testing::TempDir() + "/labmon_csv_empty.bin";
  ASSERT_TRUE(WriteTextFile(path, "").ok());
  const auto text = ReadTextFile(path);
  ASSERT_TRUE(text.ok()) << text.error();
  EXPECT_TRUE(text.value().empty());
}

TEST(FileIoTest, BinaryBytesWithNulsRoundTrip) {
  std::string bytes;
  for (int i = 0; i < 3 * 256; ++i) bytes.push_back(static_cast<char>(i));
  bytes += std::string("\0\0tail\0", 7);
  ASSERT_EQ(bytes.size(), 3u * 256u + 7u);
  const std::string path = ::testing::TempDir() + "/labmon_csv_binary.bin";
  ASSERT_TRUE(WriteTextFile(path, bytes).ok());
  const auto text = ReadTextFile(path);
  ASSERT_TRUE(text.ok()) << text.error();
  EXPECT_EQ(text.value(), bytes);
}

TEST(FileIoTest, MissingFileFails) {
  EXPECT_FALSE(ReadTextFile("/nonexistent/path/xyz").ok());
  EXPECT_FALSE(ReadCsvFile("/nonexistent/path/xyz").ok());
}

}  // namespace
}  // namespace labmon::util
