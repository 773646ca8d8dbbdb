#include "util/json.h"

#include <cassert>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace dyndisp {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reader

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    skip_ws();
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw std::invalid_argument("JSON parse error at line " +
                                std::to_string(line) + " col " +
                                std::to_string(col) + ": " + what);
  }

  bool eof() const { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }

  void skip_ws() {
    while (!eof()) {
      const char c = peek();
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  void expect(char c) {
    if (eof() || peek() != c)
      fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    const std::size_t len = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, len, lit) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parse_value() {
    if (eof()) fail("unexpected end of input");
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        // Containers recurse; a fixed bound turns hostile nesting into the
        // typed parse error instead of a stack overflow.
        if (depth_ == kMaxDepth)
          fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
        ++depth_;
        JsonValue v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"': {
        JsonValue v;
        v.type_ = JsonValue::Type::kString;
        v.string_ = parse_string();
        return v;
      }
      case 't':
        if (consume_literal("true")) {
          JsonValue v;
          v.type_ = JsonValue::Type::kBool;
          v.bool_ = true;
          return v;
        }
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) {
          JsonValue v;
          v.type_ = JsonValue::Type::kBool;
          v.bool_ = false;
          return v;
        }
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue{};
        fail("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
        fail("unexpected character");
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue v;
    v.type_ = JsonValue::Type::kObject;
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      skip_ws();
      v.members_.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (eof()) fail("unterminated object");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue v;
    v.type_ = JsonValue::Type::kArray;
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      v.items_.push_back(parse_value());
      skip_ws();
      if (eof()) fail("unterminated array");
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (eof()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (eof()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          const unsigned cp = parse_hex4();
          // Encode the BMP code point as UTF-8 (surrogate pairs are passed
          // through as two 3-byte sequences; good enough for our specs).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("invalid escape");
      }
    }
  }

  unsigned parse_hex4() {
    unsigned cp = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) fail("unterminated \\u escape");
      const char h = text_[pos_++];
      cp <<= 4;
      if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
      else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
      else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
      else fail("invalid \\u escape digit");
    }
    return cp;
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    if (eof() || peek() < '0' || peek() > '9') fail("invalid number");
    while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    if (!eof() && peek() == '.') {
      ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid number fraction");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!eof() && (peek() == 'e' || peek() == 'E')) {
      ++pos_;
      if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
      if (eof() || peek() < '0' || peek() > '9') fail("invalid number exponent");
      while (!eof() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double parsed = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0') fail("unparsable number");
    JsonValue v;
    v.type_ = JsonValue::Type::kNumber;
    v.number_ = parsed;
    v.string_ = token;  // raw token, so as_uint() can reparse losslessly
    return v;
  }

  /// Deepest array/object nesting accepted. Every document the project
  /// reads (specs, manifests, records, repro artifacts) nests a handful of
  /// levels.
  static constexpr std::size_t kMaxDepth = 256;

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

JsonValue JsonValue::parse(const std::string& text) {
  return JsonParser(text).parse_document();
}

namespace {

[[noreturn]] void type_error(const char* wanted) {
  throw std::invalid_argument(std::string("JSON value is not ") + wanted);
}

}  // namespace

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("a bool");
  return bool_;
}

double JsonValue::as_number() const {
  if (type_ != Type::kNumber) type_error("a number");
  return number_;
}

std::uint64_t JsonValue::as_uint() const {
  if (type_ != Type::kNumber) type_error("a number");
  // Plain integer tokens reparse losslessly from the raw text; routing them
  // through the double would silently round values above 2^53 (e.g. large
  // seeds), so the record id would no longer match the job that produced it.
  if (!string_.empty() &&
      string_.find_first_not_of("0123456789") == std::string::npos) {
    errno = 0;
    const unsigned long long parsed = std::strtoull(string_.c_str(), nullptr, 10);
    if (errno == ERANGE)
      throw std::invalid_argument("JSON integer overflows uint64");
    return parsed;
  }
  // Fraction/exponent/sign forms: accept only values a double represents
  // exactly as an integer.
  const double v = number_;
  if (v < 0 || v != std::floor(v))
    throw std::invalid_argument("JSON number is not a non-negative integer");
  if (v >= 9007199254740992.0)  // 2^53: doubles no longer cover every integer
    throw std::invalid_argument(
        "JSON number too large to represent exactly as an integer");
  return static_cast<std::uint64_t>(v);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("a string");
  return string_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (type_ != Type::kArray) type_error("an array");
  return items_;
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (type_ != Type::kObject) type_error("an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const auto& [name, value] : members_)
    if (name == key) return &value;
  return nullptr;
}

// ---------------------------------------------------------------------------
// Writer

JsonWriter::JsonWriter(std::ostream& out) : out_(out) {}

void JsonWriter::indent() {
  out_ << '\n';
  for (std::size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
}

void JsonWriter::comma_and_indent(bool is_value) {
  if (after_key_) {
    // The key already positioned us; the value follows inline.
    after_key_ = false;
    return;
  }
  assert((stack_.empty() || stack_.back() == Scope::kArray || !is_value) &&
         "object members need a key()");
  (void)is_value;
  if (!first_in_scope_) out_ << ',';
  if (!stack_.empty()) indent();
  first_in_scope_ = false;
}

void JsonWriter::begin_object() {
  comma_and_indent(true);
  out_ << '{';
  stack_.push_back(Scope::kObject);
  first_in_scope_ = true;
}

void JsonWriter::end_object() {
  assert(!stack_.empty() && stack_.back() == Scope::kObject);
  stack_.pop_back();
  if (!first_in_scope_) indent();
  out_ << '}';
  first_in_scope_ = false;
}

void JsonWriter::begin_array() {
  comma_and_indent(true);
  out_ << '[';
  stack_.push_back(Scope::kArray);
  first_in_scope_ = true;
}

void JsonWriter::end_array() {
  assert(!stack_.empty() && stack_.back() == Scope::kArray);
  stack_.pop_back();
  if (!first_in_scope_) indent();
  out_ << ']';
  first_in_scope_ = false;
}

void JsonWriter::key(const std::string& name) {
  assert(!stack_.empty() && stack_.back() == Scope::kObject);
  assert(!after_key_);
  comma_and_indent(false);
  out_ << '"' << json_escape(name) << "\": ";
  after_key_ = true;
}

void JsonWriter::value(const std::string& v) {
  comma_and_indent(true);
  out_ << '"' << json_escape(v) << '"';
}

void JsonWriter::value(const char* v) { value(std::string(v)); }

void JsonWriter::value(double v) {
  comma_and_indent(true);
  if (!std::isfinite(v)) {
    out_ << "null";  // JSON has no NaN/Inf
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  out_ << buf;
}

void JsonWriter::value(std::int64_t v) {
  comma_and_indent(true);
  out_ << v;
}

void JsonWriter::value(std::uint64_t v) {
  comma_and_indent(true);
  out_ << v;
}

void JsonWriter::value(bool v) {
  comma_and_indent(true);
  out_ << (v ? "true" : "false");
}

}  // namespace dyndisp
