// Minimal JSON support: a streaming writer so benches can emit
// machine-readable perf trajectories (BENCH_*.json) alongside their ASCII
// tables -- the JSON sibling of util/csv.h -- and a small document reader
// (JsonValue) so campaign specs, manifests, and JSONL result stores can be
// parsed back in. The writer emits values depth-first and manages commas
// and indentation; the caller guarantees well-formed nesting (asserted in
// debug builds). The reader is a strict recursive-descent parser over the
// JSON grammar (no comments, no trailing commas) that throws
// std::invalid_argument with a line/column location on malformed input,
// including arrays/objects nested deeper than a fixed bound (256 levels).
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace dyndisp {

/// Escapes a string for embedding in a JSON document (without quotes).
[[nodiscard]] std::string json_escape(const std::string& s);

/// An immutable parsed JSON document node. Object member order is preserved
/// so iteration (and anything derived from it, e.g. campaign job expansion)
/// is deterministic and independent of hash seeds.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Parses a complete JSON document; trailing non-whitespace is an error.
  /// Throws std::invalid_argument with "line L col C" context on failure.
  [[nodiscard]] static JsonValue parse(const std::string& text);

  JsonValue() : type_(Type::kNull) {}

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; throw std::invalid_argument on a type mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  /// The number as a non-negative integer. Plain integer tokens are
  /// reparsed from their raw text, so the full uint64 range round-trips
  /// losslessly; fractions, negatives, and values a double cannot represent
  /// exactly are rejected.
  [[nodiscard]] std::uint64_t as_uint() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<JsonValue>& items() const;
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members() const;

  /// Object member lookup; null when absent or when this is not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

 private:
  friend class JsonParser;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

class JsonWriter {
 public:
  /// Writes to `out`; the stream must outlive the writer. The document is
  /// complete when every begin_* has been matched by its end_*.
  explicit JsonWriter(std::ostream& out);

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Object member key; must be followed by exactly one value or begin_*.
  void key(const std::string& name);

  void value(const std::string& v);
  void value(const char* v);
  void value(double v);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(bool v);

  /// Convenience: key + value in one call.
  template <typename T>
  void member(const std::string& name, const T& v) {
    key(name);
    value(v);
  }

 private:
  enum class Scope { kObject, kArray };
  void comma_and_indent(bool is_value);
  void indent();

  std::ostream& out_;
  std::vector<Scope> stack_;
  bool first_in_scope_ = true;
  bool after_key_ = false;
};

}  // namespace dyndisp
