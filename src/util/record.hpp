// The one line grammar behind every text format the stack exchanges:
// the shard wire, checkpoint snapshots, service frame headers and model
// state blocks. Each format owns its keywords; this module owns the
// rules they share:
//
//  * A record is one line of tokens separated by single spaces. The
//    first token is the record's keyword. Tokens are nonempty and carry
//    no space, tab, CR or LF, so every document has exactly one
//    spelling: a doubled space is an error, not slack.
//  * Integers are decimal; RNG words and hashes are 16-digit lowercase
//    hex; doubles are C99 hexfloats (`%a`), so decoding reproduces
//    every bit, including -0.0, denormals, nan and ±inf.
//  * Counts declared in a record are checked before they size anything:
//    a counted line (`key <count> v…`) must carry exactly <count>
//    values, and a counted block (`key <count>` plus records) may not
//    declare more records than the input has lines left.
//
// Every violation throws record::Error with the 1-based line number;
// each format rethrows it as its own named error under its own prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sops::util::record {

/// A grammar violation. what() reads "line N: <detail>", or just the
/// detail when `line` is 0 (input that is not a numbered document).
class Error : public std::runtime_error {
 public:
  Error(std::size_t line, const std::string& detail);
};

/// Nonempty and free of spaces, tabs, CR and LF.
[[nodiscard]] bool is_token(std::string_view s) noexcept;

/// One or more is_token() tokens joined by single spaces.
[[nodiscard]] bool is_line(std::string_view s) noexcept;

// ---- writing: append one token ------------------------------------------

void put_u64(std::string& out, std::uint64_t v);
void put_i64(std::string& out, std::int64_t v);
/// Zero-padded 16-digit lowercase hex.
void put_hex16(std::string& out, std::uint64_t v);
/// C99 hexfloat ("%a"); nan/inf print as nan, -nan, inf, -inf.
void put_double(std::string& out, double v);

/// Appends "<count> v…": the value part of a counted line.
void put_counted(std::string& out, std::span<const double> values);
void put_counted(std::string& out, std::span<const std::uint64_t> values);

// ---- token parsers: the whole token or nothing ----------------------------

[[nodiscard]] std::optional<std::uint64_t> parse_u64(std::string_view tok);
[[nodiscard]] std::optional<std::int64_t> parse_i64(std::string_view tok);
/// Exactly 16 hex digits.
[[nodiscard]] std::optional<std::uint64_t> parse_hex16(std::string_view tok);
/// Hexfloat, decimal, nan or inf, optionally signed with '-'.
[[nodiscard]] std::optional<double> parse_double(std::string_view tok);

// ---- reading ------------------------------------------------------------

/// The whole contents of `path`. Throws std::runtime_error
/// "<what>: cannot open '<path>' for reading" (or "read error on") if it
/// cannot be read.
[[nodiscard]] std::string read_file(const std::string& path,
                                    std::string_view what);

/// One record, validated on construction; its tokens after the keyword
/// are read left to right. Every read failure throws Error naming the
/// line and keyword.
class Line {
 public:
  /// Validates `text` as one record. `number` is its 1-based line
  /// number, or 0 for a standalone line.
  Line(std::string_view text, std::size_t number);

  [[nodiscard]] std::string_view keyword() const noexcept { return keyword_; }
  [[nodiscard]] std::size_t number() const noexcept { return number_; }
  /// Tokens after the keyword.
  [[nodiscard]] std::size_t arity() const noexcept { return arity_; }
  /// Tokens not yet read.
  [[nodiscard]] std::size_t left() const noexcept { return arity_ - read_; }
  /// Everything after the keyword and its space (empty when arity 0).
  [[nodiscard]] std::string_view rest() const noexcept;

  std::string_view token();
  std::uint64_t u64();
  std::int64_t i64();
  std::uint64_t hex16();
  double f64();
  /// "0" or "1".
  bool flag();
  /// A count that must equal the number of tokens left on the line.
  std::uint64_t count();
  /// `<count> v…` to the end of the line.
  std::vector<double> f64s();
  std::vector<std::uint64_t> u64s();

  [[noreturn]] void fail(std::string_view detail) const;

 private:
  std::string_view text_;
  std::string_view keyword_;
  std::size_t number_;
  std::size_t arity_ = 0;
  std::size_t read_ = 0;
  std::size_t pos_ = 0;  ///< offset of the next unread token
};

/// Reads the records of a document (one per '\n'-terminated line; the
/// final newline is optional) or of a list of lines such as a model
/// state block. Lines and their tokens are views into that input, which
/// must outlive them.
class Cursor {
 public:
  explicit Cursor(std::string_view text);
  explicit Cursor(std::span<const std::string> lines);

  /// The next record, which must have this keyword.
  Line expect(std::string_view keyword);
  /// ... and exactly `arity` tokens after it.
  Line expect(std::string_view keyword, std::size_t arity);

  /// `<magic> v<version>`: the first line of a versioned document.
  /// `format` names it in the version error ("unsupported <format>
  /// version vN (reader speaks vM)").
  void header(std::string_view magic, std::uint64_t version,
              std::string_view format);

  /// `keyword <count>`, the head of a counted block; returns the count.
  std::uint64_t block(std::string_view keyword);
  /// Reads `line`'s next token as the number of records that follow it.
  std::uint64_t records(Line& line);

  /// Throws unless every line has been read.
  void finish() const;

 private:
  /// The next record, whatever its keyword; `wanted` names it in the
  /// end-of-input error.
  Line next(std::string_view wanted);

  std::string_view rest_;
  std::span<const std::string> lines_;
  bool from_lines_ = false;
  std::size_t line_no_ = 0;
  std::size_t left_ = 0;
  std::string_view last_keyword_;
};

}  // namespace sops::util::record
