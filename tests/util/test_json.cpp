#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace qhdl::util {
namespace {

TEST(Json, Scalars) {
  EXPECT_EQ(Json{}.dump(), "null");
  EXPECT_EQ(Json{true}.dump(), "true");
  EXPECT_EQ(Json{false}.dump(), "false");
  EXPECT_EQ(Json{42}.dump(), "42");
  EXPECT_EQ(Json{-3.5}.dump(), "-3.5");
  EXPECT_EQ(Json{"hi"}.dump(), "\"hi\"");
}

TEST(Json, IntegralNumbersPrintWithoutDecimals) {
  EXPECT_EQ(Json{1000000.0}.dump(), "1000000");
  EXPECT_EQ(Json{std::size_t{155}}.dump(), "155");
}

TEST(Json, NonFiniteBecomesNull) {
  EXPECT_EQ(Json{std::numeric_limits<double>::infinity()}.dump(), "null");
  EXPECT_EQ(Json{std::numeric_limits<double>::quiet_NaN()}.dump(), "null");
}

TEST(Json, StringEscaping) {
  EXPECT_EQ(Json{"a\"b\\c\nd"}.dump(), "\"a\\\"b\\\\c\\nd\"");
}

TEST(Json, ArrayCompact) {
  Json a = Json::array();
  a.push_back(Json{1});
  a.push_back(Json{"two"});
  EXPECT_EQ(a.dump(), "[1,\"two\"]");
  EXPECT_EQ(a.size(), 2u);
}

TEST(Json, ObjectSortedKeys) {
  Json o = Json::object();
  o["zebra"] = Json{1};
  o["apple"] = Json{2};
  EXPECT_EQ(o.dump(), "{\"apple\":2,\"zebra\":1}");
  EXPECT_TRUE(o.contains("apple"));
  EXPECT_FALSE(o.contains("missing"));
}

TEST(Json, NestedPrettyPrint) {
  Json o = Json::object();
  o["list"] = Json::array_of(std::vector<int>{1, 2});
  const std::string pretty = o.dump(2);
  EXPECT_NE(pretty.find("{\n  \"list\": [\n    1,\n    2\n  ]\n}"),
            std::string::npos);
}

TEST(Json, AutoVivifyObject) {
  Json j;  // starts null
  j["key"] = Json{"value"};
  EXPECT_EQ(j.dump(), "{\"key\":\"value\"}");
}

TEST(Json, TypeErrors) {
  Json number{1};
  EXPECT_THROW(number.push_back(Json{2}), std::logic_error);
  EXPECT_THROW(number.size(), std::logic_error);
  Json arr = Json::array();
  EXPECT_THROW(arr["k"], std::logic_error);
}

TEST(Json, CheckedIntegerReadsAcceptExactFits) {
  EXPECT_EQ(Json{42}.as_integer<std::size_t>(), 42u);
  EXPECT_EQ(Json{-7}.as_integer<int>(), -7);
  EXPECT_EQ(Json{-2147483648.0}.as_integer<int>(), -2147483647 - 1);
  EXPECT_EQ(Json{2147483647.0}.as_integer<int>(), 2147483647);
  EXPECT_EQ(Json{9007199254740992.0}.as_integer<std::uint64_t>(),
            9007199254740992ull);
}

TEST(Json, CheckedIntegerReadsRejectWhatACastWouldMangle) {
  EXPECT_THROW(Json{2.5}.as_integer<std::size_t>(), std::invalid_argument);
  EXPECT_THROW(Json{-1}.as_integer<std::size_t>(), std::out_of_range);
  EXPECT_THROW(Json{1e300}.as_integer<int>(), std::out_of_range);
  EXPECT_THROW(Json{-1e300}.as_integer<long>(), std::out_of_range);
  EXPECT_THROW(Json{2147483648.0}.as_integer<int>(), std::out_of_range);
  EXPECT_THROW(Json{18446744073709551616.0}.as_integer<std::uint64_t>(),
               std::out_of_range);
  EXPECT_THROW(Json{std::numeric_limits<double>::infinity()}.as_integer<int>(),
               std::out_of_range);
  EXPECT_THROW(Json{std::nan("")}.as_integer<int>(), std::invalid_argument);
  EXPECT_THROW(Json{"7"}.as_integer<int>(), std::logic_error);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json::array().dump(2), "[]");
  EXPECT_EQ(Json::object().dump(2), "{}");
}

}  // namespace
}  // namespace qhdl::util
