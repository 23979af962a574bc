// One JSON writer for every exported document, and the reader that parses
// them back (tools/incident, the tests).
//
// Writer rules — the deterministic-export contract:
//   - compact: no whitespace anywhere; keys appear in call order;
//   - integers are exact (all 64 bits);
//   - doubles are std::to_chars(general, 6), the text an ostream's default
//     `<<` produces; a non-finite double is written as null;
//   - strings escape `"` and `\`, write \n \r \t short and every other
//     control byte as \u00XX, and pass all other bytes through.
// The writer trusts its caller's call order (Key before each member value,
// matched Begin/End); the parse-everything test holds the builders to it.
//
// The reader keeps every non-negative integer literal exact in a uint64_t
// (a double cannot: 0xffff8dde00400400 rounds to ...400000) and decodes
// \u escapes back to their bytes (UTF-8 above 0x7f).

#ifndef SPV_BASE_JSON_H_
#define SPV_BASE_JSON_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace spv::json {

class Writer {
 public:
  Writer& BeginObject();
  Writer& EndObject();
  Writer& BeginArray();
  Writer& EndArray();
  Writer& Key(std::string_view key);

  Writer& String(std::string_view value);
  Writer& Uint(uint64_t value);
  Writer& Int(int64_t value);
  Writer& Double(double value);
  Writer& Bool(bool value);
  Writer& Null();
  // Embeds an already-serialized JSON value verbatim; "" embeds null.
  Writer& Raw(std::string_view json);

  // Hands over the document and leaves the writer empty.
  std::string Take();

 private:
  void Separate();
  void AppendEscaped(std::string_view text);

  std::string out_;
  bool need_comma_ = false;  // a value or a closed container precedes
};

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;   // every number literal
  uint64_t integer = 0;  // exact for a non-negative integer literal, else 0
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;  // document order

  const Value* Find(std::string_view key) const;
  // Member lookups; an absent or differently typed member yields the fallback.
  // U64 returns `integer`, so a fractional or negative number reads as 0.
  uint64_t U64(std::string_view key, uint64_t fallback = 0) const;
  std::string Str(std::string_view key, std::string_view fallback = "") const;
  bool Bool(std::string_view key) const;
};

// Parses one complete document. Malformed input yields nullopt and, when
// `error_offset` is non-null, the byte offset where parsing stopped.
std::optional<Value> Parse(std::string_view text, size_t* error_offset = nullptr);

}  // namespace spv::json

#endif  // SPV_BASE_JSON_H_
