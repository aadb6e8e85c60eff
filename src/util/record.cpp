#include "src/util/record.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <limits>

namespace sops::util::record {

namespace {

std::string located(std::size_t line, const std::string& detail) {
  return line == 0 ? detail : "line " + std::to_string(line) + ": " + detail;
}

bool is_hex_digit(char c) noexcept {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
}

template <class T>
std::optional<T> parse_int(std::string_view tok, int base) {
  T out{};
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out, base);
  if (ec != std::errc{} || ptr != end || tok.empty()) return std::nullopt;
  return out;
}

template <class T>
void put_int(std::string& out, T v) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  (void)ec;
  out.append(buf, ptr);
}

}  // namespace

Error::Error(std::size_t line, const std::string& detail)
    : std::runtime_error(located(line, detail)) {}

bool is_token(std::string_view s) noexcept {
  return !s.empty() && s.find_first_of(" \t\n\r") == std::string_view::npos;
}

bool is_line(std::string_view s) noexcept {
  if (s.empty() || s.front() == ' ' || s.back() == ' ') return false;
  char prev = '\0';
  for (const char c : s) {
    if (c == '\t' || c == '\n' || c == '\r' || (c == ' ' && prev == ' ')) {
      return false;
    }
    prev = c;
  }
  return true;
}

void put_u64(std::string& out, std::uint64_t v) { put_int(out, v); }

void put_i64(std::string& out, std::int64_t v) { put_int(out, v); }

void put_hex16(std::string& out, std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  out.append(buf, 16);
}

void put_double(std::string& out, double v) {
  char buf[48];
  const int n = std::snprintf(buf, sizeof buf, "%a", v);
  out.append(buf, static_cast<std::size_t>(n));
}

void put_counted(std::string& out, std::span<const double> values) {
  put_u64(out, values.size());
  for (const double v : values) {
    out += ' ';
    put_double(out, v);
  }
}

void put_counted(std::string& out, std::span<const std::uint64_t> values) {
  put_u64(out, values.size());
  for (const std::uint64_t v : values) {
    out += ' ';
    put_u64(out, v);
  }
}

std::optional<std::uint64_t> parse_u64(std::string_view tok) {
  return parse_int<std::uint64_t>(tok, 10);
}

std::optional<std::int64_t> parse_i64(std::string_view tok) {
  return parse_int<std::int64_t>(tok, 10);
}

std::optional<std::uint64_t> parse_hex16(std::string_view tok) {
  if (tok.size() != 16 || !std::all_of(tok.begin(), tok.end(), is_hex_digit)) {
    return std::nullopt;
  }
  return parse_int<std::uint64_t>(tok, 16);
}

std::optional<double> parse_double(std::string_view tok) {
  // %a writes "[-]0x<hex>p<exp>", "[-]nan" or "[-]inf". from_chars
  // reads the hex body without its "0x"; the sign is applied by hand so
  // that "-nan" keeps its sign bit, and only the spellings below pass.
  const bool negative = !tok.empty() && tok.front() == '-';
  std::string_view body = tok.substr(negative ? 1 : 0);
  double v = 0.0;
  if (body == "nan") {
    v = std::numeric_limits<double>::quiet_NaN();
  } else if (body == "inf") {
    v = std::numeric_limits<double>::infinity();
  } else {
    auto format = std::chars_format::general;
    if (body.size() > 2 && body[0] == '0' && body[1] == 'x') {
      body.remove_prefix(2);
      format = std::chars_format::hex;
      if (!is_hex_digit(body.front())) return std::nullopt;
    } else if (body.empty() || !((body[0] >= '0' && body[0] <= '9') ||
                                 body[0] == '.')) {
      return std::nullopt;
    }
    const char* end = body.data() + body.size();
    const auto [ptr, ec] = std::from_chars(body.data(), end, v, format);
    if (ec != std::errc{} || ptr != end) return std::nullopt;
  }
  return negative ? -v : v;
}

std::string read_file(const std::string& path, std::string_view what) {
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) {
    throw std::runtime_error(std::string(what) + ": cannot open '" + path +
                             "' for reading");
  }
  std::string text;
  char buf[1 << 16];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, in)) > 0) {
    text.append(buf, got);
  }
  const bool read_error = std::ferror(in) != 0;
  std::fclose(in);
  if (read_error) {
    throw std::runtime_error(std::string(what) + ": read error on '" + path +
                             "'");
  }
  return text;
}

// ---- Line ---------------------------------------------------------------

Line::Line(std::string_view text, std::size_t number)
    : text_(text), number_(number) {
  if (!is_line(text)) {
    throw Error(number, "empty token or stray whitespace");
  }
  arity_ = static_cast<std::size_t>(std::count(text.begin(), text.end(), ' '));
  const std::size_t space = text.find(' ');
  keyword_ = text.substr(0, space);
  pos_ = space == std::string_view::npos ? text.size() : space + 1;
}

std::string_view Line::rest() const noexcept {
  return arity_ == 0 ? std::string_view{} : text_.substr(keyword_.size() + 1);
}

std::string_view Line::token() {
  if (read_ == arity_) fail("missing token");
  const std::size_t space = text_.find(' ', pos_);
  const std::string_view tok = text_.substr(pos_, space - pos_);
  pos_ = space == std::string_view::npos ? text_.size() : space + 1;
  ++read_;
  return tok;
}

std::uint64_t Line::u64() {
  const auto v = parse_u64(token());
  if (!v) fail("expected unsigned integer");
  return *v;
}

std::int64_t Line::i64() {
  const auto v = parse_i64(token());
  if (!v) fail("expected integer");
  return *v;
}

std::uint64_t Line::hex16() {
  const auto v = parse_hex16(token());
  if (!v) fail("expected 16-digit hex value");
  return *v;
}

double Line::f64() {
  const auto v = parse_double(token());
  if (!v) fail("expected hexfloat value");
  return *v;
}

bool Line::flag() {
  const std::string_view tok = token();
  if (tok != "0" && tok != "1") fail("expected 0 or 1");
  return tok == "1";
}

std::uint64_t Line::count() {
  const std::uint64_t n = u64();
  if (n != left()) fail("value count does not match declared count");
  return n;
}

std::vector<double> Line::f64s() {
  std::vector<double> out(count());
  for (double& v : out) v = f64();
  return out;
}

std::vector<std::uint64_t> Line::u64s() {
  std::vector<std::uint64_t> out(count());
  for (std::uint64_t& v : out) v = u64();
  return out;
}

void Line::fail(std::string_view detail) const {
  throw Error(number_, std::string(keyword_) + ": " + std::string(detail));
}

// ---- Cursor -------------------------------------------------------------

Cursor::Cursor(std::string_view text)
    : rest_(text),
      left_(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')) +
            (!text.empty() && text.back() != '\n' ? 1 : 0)) {}

Cursor::Cursor(std::span<const std::string> lines)
    : lines_(lines), from_lines_(true), left_(lines.size()) {}

Line Cursor::next(std::string_view wanted) {
  if (left_ == 0) {
    throw Error(line_no_ + 1, "unexpected end of input (wanted '" +
                                  std::string(wanted) + "')");
  }
  std::string_view text;
  if (from_lines_) {
    text = lines_[line_no_];
  } else {
    const std::size_t nl = rest_.find('\n');
    text = rest_.substr(0, nl);
    rest_ = nl == std::string_view::npos ? std::string_view{}
                                         : rest_.substr(nl + 1);
  }
  ++line_no_;
  --left_;
  Line line(text, line_no_);
  last_keyword_ = line.keyword();
  return line;
}

Line Cursor::expect(std::string_view keyword) {
  Line line = next(keyword);
  if (line.keyword() != keyword) {
    throw Error(line.number(), "expected '" + std::string(keyword) +
                                   "' line, got '" +
                                   std::string(line.keyword()) + "'");
  }
  return line;
}

Line Cursor::expect(std::string_view keyword, std::size_t arity) {
  Line line = expect(keyword);
  if (line.arity() != arity) {
    throw Error(line.number(),
                "wrong token count for '" + std::string(keyword) + "' line");
  }
  return line;
}

void Cursor::header(std::string_view magic, std::uint64_t version,
                    std::string_view format) {
  Line line = next(magic);
  if (line.keyword() != magic || line.arity() != 1) {
    throw Error(line.number(), "bad magic line (expected '" +
                                   std::string(magic) + " v" +
                                   std::to_string(version) + "')");
  }
  const std::string_view tok = line.token();
  const auto v = tok[0] == 'v' ? parse_u64(tok.substr(1)) : std::nullopt;
  if (!v) throw Error(line.number(), "malformed version token");
  if (*v != version) {
    throw Error(line.number(), "unsupported " + std::string(format) +
                                   " version v" + std::to_string(*v) +
                                   " (reader speaks v" +
                                   std::to_string(version) + ")");
  }
}

std::uint64_t Cursor::block(std::string_view keyword) {
  Line head = expect(keyword, 1);
  return records(head);
}

std::uint64_t Cursor::records(Line& line) {
  const std::uint64_t n = line.u64();
  if (n > left_) {
    line.fail("count " + std::to_string(n) + " exceeds the " +
              std::to_string(left_) + " lines left");
  }
  return n;
}

void Cursor::finish() const {
  if (left_ != 0) {
    throw Error(line_no_ + 1, "trailing content after '" +
                                  std::string(last_keyword_) + "'");
  }
}

}  // namespace sops::util::record
