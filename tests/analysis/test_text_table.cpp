#include "text_table.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace occm::bench {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable table;
  table.header({"name", "value"});
  table.row({"x", "1"});
  table.row({"longer", "22"});
  const std::string out = table.str();
  EXPECT_NE(out.find("name    value"), std::string::npos);
  EXPECT_NE(out.find("x       1"), std::string::npos);
  EXPECT_NE(out.find("longer  22"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable table;
  table.header({"a", "b"});
  EXPECT_THROW((void)table.row({"only one"}), ContractViolation);
}

TEST(TextTable, EmptyHeaderThrows) {
  TextTable table;
  EXPECT_THROW((void)table.header({}), ContractViolation);
}

TEST(Fmt, FixedPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(3.14159, 0), "3");
  EXPECT_EQ(fmt(-0.5, 1), "-0.5");
  EXPECT_EQ(fmt(2.0), "2.00");
}

}  // namespace
}  // namespace occm::bench
