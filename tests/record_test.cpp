// Tests for the shared line grammar (src/util/record): token parsers,
// the record cursor's refusals, and how a model state block reports a
// grammar error through the registry.

#include "src/util/record.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "src/model/builtin.hpp"
#include "src/model/registry.hpp"
#include "src/util/rng.hpp"

namespace sops {
namespace {

namespace rec = util::record;

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const rec::Error& e) {
    return e.what();
  }
  return "(no error)";
}

TEST(Record, DoublesRoundTripEveryBitPattern) {
  util::Rng rng(20261017);
  for (int i = 0; i < 200000; ++i) {
    std::uint64_t bits = rng();
    if (i % 3 == 1) bits &= 0x800fffffffffffffULL;  // denormals and ±0
    const double v = std::bit_cast<double>(bits);
    if (std::isnan(v)) continue;
    std::string tok;
    rec::put_double(tok, v);
    const auto back = rec::parse_double(tok);
    ASSERT_TRUE(back.has_value()) << tok;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(*back), bits) << tok;
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double v : {kInf, -kInf, 0.0, -0.0, 5e-324, -1.0 / 3.0}) {
    std::string tok;
    rec::put_double(tok, v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*rec::parse_double(tok)),
              std::bit_cast<std::uint64_t>(v))
        << tok;
  }
  EXPECT_TRUE(std::isnan(*rec::parse_double("nan")));
  EXPECT_TRUE(std::signbit(*rec::parse_double("-nan")));
  EXPECT_EQ(*rec::parse_double("0.2"), 0.2);  // decimal params still read
}

TEST(Record, TokenParsersTakeTheWholeTokenOrNothing) {
  for (const char* bad : {"", "-1", "+1", "1 ", "0x10", "12x",
                          "18446744073709551616"}) {
    EXPECT_FALSE(rec::parse_u64(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_EQ(rec::parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(rec::parse_i64("-9223372036854775808"), INT64_MIN);
  EXPECT_FALSE(rec::parse_i64("+3").has_value());
  for (const char* bad : {"", "0x", "0x-1p+0", "-", "--1", "+1", "nan(1)",
                          "infinity", "0xinf", "1e400", " 1", "1p+0"}) {
    EXPECT_FALSE(rec::parse_double(bad).has_value()) << "'" << bad << "'";
  }
  EXPECT_EQ(rec::parse_hex16("00000000000000ff"), 255u);
  for (const char* bad : {"ff", "00000000000000FF", "0x000000000000ff",
                          "000000000000000g"}) {
    EXPECT_FALSE(rec::parse_hex16(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(Record, LinesRefuseStrayWhitespace) {
  for (const char* bad : {"", " a", "a ", "a  b", "a\tb", "a\rb", "a\nb"}) {
    EXPECT_THROW(rec::Line(bad, 3), rec::Error) << "'" << bad << "'";
  }
  rec::Line line("key 7 -2 0x1p-1 0000000000000001 1 tail", 4);
  EXPECT_EQ(line.keyword(), "key");
  EXPECT_EQ(line.arity(), 6u);
  EXPECT_EQ(line.rest(), "7 -2 0x1p-1 0000000000000001 1 tail");
  EXPECT_EQ(line.u64(), 7u);
  EXPECT_EQ(line.i64(), -2);
  EXPECT_EQ(line.f64(), 0.5);
  EXPECT_EQ(line.hex16(), 1u);
  EXPECT_TRUE(line.flag());
  EXPECT_EQ(line.token(), "tail");
  EXPECT_EQ(error_of([&] { (void)line.token(); }),
            "line 4: key: missing token");
}

TEST(Record, CursorNumbersLinesAndNamesWhatItWanted) {
  rec::Cursor in(std::string_view("magic v3\na 1\nb 2 3\n"));
  in.header("magic", 3, "test");
  EXPECT_EQ(in.expect("a", 1).u64(), 1u);
  EXPECT_EQ(error_of([&] { (void)in.expect("c"); }),
            "line 3: expected 'c' line, got 'b'");
  EXPECT_EQ(error_of([&] { (void)in.expect("d"); }),
            "line 4: unexpected end of input (wanted 'd')");

  rec::Cursor old(std::string_view("magic v2\n"));
  EXPECT_EQ(error_of([&] { old.header("magic", 3, "test"); }),
            "line 1: unsupported test version v2 (reader speaks v3)");

  rec::Cursor trailing(std::string_view("end\nextra\n"));
  (void)trailing.expect("end", 0);
  EXPECT_EQ(error_of([&] { trailing.finish(); }),
            "line 2: trailing content after 'end'");

  // A blank line is not a terminator: only the final newline is optional.
  rec::Cursor blank(std::string_view("end\n\n"));
  (void)blank.expect("end", 0);
  EXPECT_THROW(blank.finish(), rec::Error);
}

TEST(Record, DeclaredCountsAreCheckedAgainstTheInput) {
  // A counted block may not declare more records than lines remain.
  rec::Cursor in(std::string_view("items 4611686018427387904\nx\ny\n"));
  EXPECT_EQ(error_of([&] { (void)in.block("items"); }),
            "line 1: items: count 4611686018427387904 exceeds the 2 lines "
            "left");
  rec::Cursor ok(std::string_view("items 2\nx\ny"));
  EXPECT_EQ(ok.block("items"), 2u);

  // A counted line must carry exactly its count of values.
  rec::Line line("vals 4611686018427387904 0x1p+0", 1);
  EXPECT_EQ(error_of([&] { (void)line.f64s(); }),
            "line 1: vals: value count does not match declared count");
  rec::Line good("vals 2 0x1p+0 -inf", 1);
  EXPECT_EQ(good.f64s().size(), 2u);
}

// The former model-state codec's tests, on the shared grammar: a state
// block's grammar errors reach callers as ModelError naming the record.

TEST(StateCodec, DoublesRoundTripBitExact) {
  std::string line;
  rec::put_double(line, 0.1);
  EXPECT_EQ(rec::parse_double(line), 0.1);
  EXPECT_EQ(line.find("0x"), 0u) << "hexfloat expected: " << line;
}

TEST(StateCodec, MalformedTokensNameTheField) {
  model::ensure_builtin_models();
  const auto& factory = model::require_model("separation");
  const std::vector<std::string> good =
      factory.build(std::vector<std::string>{"blob=4"},
                    model::TaskPoint{0, 0, 2.0, 2.0, 9})
          ->save_state();
  auto bad = good;
  bad[2] = "counters 12x 0 0 0 0 0 0 0";
  try {
    (void)factory.restore(bad);
    FAIL() << "bad u64 accepted";
  } catch (const model::ModelError& e) {
    EXPECT_EQ(std::string(e.what()),
              "state: line 3: counters: expected unsigned integer");
  }
  bad = good;
  bad[0] = "params  0x1p+1 0x1p+1 1";
  EXPECT_THROW((void)factory.restore(bad), model::ModelError);
  bad = good;
  bad[0] = "rng 1 2";
  EXPECT_THROW((void)factory.restore(bad), model::ModelError);
}

}  // namespace
}  // namespace sops
