#include "net/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/random.h"

namespace fab::net {
namespace {

TEST(NetJsonTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->bool_value());
  EXPECT_FALSE(ParseJson("false")->bool_value());
  EXPECT_DOUBLE_EQ(ParseJson("3.25")->number(), 3.25);
  EXPECT_DOUBLE_EQ(ParseJson("-1e3")->number(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseJson("0")->number(), 0.0);
  EXPECT_EQ(ParseJson("\"hi\"")->str(), "hi");
}

TEST(NetJsonTest, ParsesNestedDocument) {
  const std::string doc =
      "{\"period\":\"2017\",\"window\":7,\"model\":\"rf\","
      "\"rows\":[[1.5,-2.0],[0,3]],\"extra\":{\"deep\":[true,null]}}";
  Result<JsonValue> parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& v = *parsed;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(*v.GetString("period"), "2017");
  EXPECT_DOUBLE_EQ(*v.GetNumber("window"), 7.0);
  const JsonValue* rows = v.Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->array().size(), 2u);
  EXPECT_DOUBLE_EQ(rows->array()[0].array()[1].number(), -2.0);
  const JsonValue* extra = v.Find("extra");
  ASSERT_NE(extra, nullptr);
  EXPECT_TRUE(extra->Find("deep")->array()[1].is_null());
}

TEST(NetJsonTest, StringEscapes) {
  Result<JsonValue> parsed =
      ParseJson("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->str(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(NetJsonTest, TypedAccessorsNameTheMissingField) {
  Result<JsonValue> parsed = ParseJson("{\"window\":\"seven\"}");
  ASSERT_TRUE(parsed.ok());
  Result<std::string> missing = parsed->GetString("period");
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("period"), std::string::npos);
  Result<double> mistyped = parsed->GetNumber("window");
  EXPECT_FALSE(mistyped.ok());
  EXPECT_EQ(mistyped.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetJsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
        "\"bad\\q\"", "{\"a\":1} trailing", "[1] 2", "nul",
        // Numbers outside the RFC 8259 grammar.
        "+1", "01", "-01", ".5", "1.", "-.5", "[1,+2]", "-", "1e", "1e+",
        "0x10", "inf", "NaN", "[1.e3]"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
  // Raw control characters must be escaped per RFC 8259.
  EXPECT_FALSE(ParseJson("\"a\nb\"").ok());
}

TEST(NetJsonTest, NumberEdgeCases) {
  const Result<JsonValue> minus_zero = ParseJson("-0");
  ASSERT_TRUE(minus_zero.ok());
  EXPECT_EQ(minus_zero->number(), 0.0);
  EXPECT_TRUE(std::signbit(minus_zero->number()));
  EXPECT_EQ(std::bit_cast<uint64_t>(ParseJson("4.9e-324")->number()), 1u);
  // Out of the double range: the IEEE answer, not an error.
  EXPECT_EQ(ParseJson("1e400")->number(), HUGE_VAL);
  EXPECT_EQ(ParseJson("-1e400")->number(), -HUGE_VAL);
  const Result<JsonValue> tiny = ParseJson("1e-400");
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(tiny->number()), 0u);
  EXPECT_EQ(ParseJson("0.5E+1")->number(), 5.0);
  EXPECT_EQ(ParseJson("[ 2e-1 ]")->array()[0].number(), 0.2);
}

TEST(NetJsonTest, NumbersMatchStrtodBitForBit) {
  // Random bit patterns cover every exponent, subnormals included; %.17g
  // is what the serving responses print.
  Rng rng(8259);
  char buf[40];
  for (int i = 0; i < 100000; ++i) {
    uint64_t bits = rng.NextU64();
    // Every eighth value is a subnormal (biased exponent zero).
    if (i % 8 == 0) bits &= 0x800FFFFFFFFFFFFFULL;
    const double v = std::bit_cast<double>(bits);
    if (!std::isfinite(v)) continue;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    const Result<JsonValue> parsed = ParseJson(buf);
    ASSERT_TRUE(parsed.ok()) << buf;
    ASSERT_EQ(std::bit_cast<uint64_t>(parsed->number()),
              std::bit_cast<uint64_t>(std::strtod(buf, nullptr)))
        << buf;
  }
}

TEST(NetJsonTest, RepeatedKeyKeepsLastValue) {
  const Result<JsonValue> parsed = ParseJson("{\"a\":[1,2],\"a\":3}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed->GetNumber("a"), 3.0);
}

TEST(NetJsonTest, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(ParseJson(deep, /*max_depth=*/64).ok());
  EXPECT_TRUE(ParseJson(deep, /*max_depth=*/128).ok());
}

TEST(NetJsonTest, ErrorsCarryBytePosition) {
  Result<JsonValue> parsed = ParseJson("{\"a\": !}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("at byte"), std::string::npos);
}

TEST(NetJsonTest, EscapeJsonRoundTripsThroughParser) {
  const std::string original = "line1\nline2\t\"quoted\" back\\slash";
  Result<JsonValue> parsed = ParseJson(EscapeJson(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->str(), original);
}

}  // namespace
}  // namespace fab::net
