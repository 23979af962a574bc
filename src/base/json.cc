#include "base/json.h"

#include <charconv>
#include <cmath>

namespace spv::json {

// ---- Writer -----------------------------------------------------------------

void Writer::Separate() {
  if (need_comma_) {
    out_.push_back(',');
  }
  need_comma_ = true;
}

void Writer::AppendEscaped(std::string_view text) {
  out_.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out_ += "\\\"";
        break;
      case '\\':
        out_ += "\\\\";
        break;
      case '\n':
        out_ += "\\n";
        break;
      case '\r':
        out_ += "\\r";
        break;
      case '\t':
        out_ += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          constexpr char kHex[] = "0123456789abcdef";
          out_ += "\\u00";
          out_.push_back(kHex[(c >> 4) & 0xf]);
          out_.push_back(kHex[c & 0xf]);
        } else {
          out_.push_back(c);
        }
    }
  }
  out_.push_back('"');
}

Writer& Writer::BeginObject() {
  Separate();
  out_.push_back('{');
  need_comma_ = false;
  return *this;
}

Writer& Writer::EndObject() {
  out_.push_back('}');
  need_comma_ = true;
  return *this;
}

Writer& Writer::BeginArray() {
  Separate();
  out_.push_back('[');
  need_comma_ = false;
  return *this;
}

Writer& Writer::EndArray() {
  out_.push_back(']');
  need_comma_ = true;
  return *this;
}

Writer& Writer::Key(std::string_view key) {
  Separate();
  AppendEscaped(key);
  out_.push_back(':');
  need_comma_ = false;  // the member's value follows without a comma
  return *this;
}

Writer& Writer::String(std::string_view value) {
  Separate();
  AppendEscaped(value);
  return *this;
}

Writer& Writer::Uint(uint64_t value) {
  Separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  return *this;
}

Writer& Writer::Int(int64_t value) {
  Separate();
  char buf[24];
  out_.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
  return *this;
}

Writer& Writer::Double(double value) {
  if (!std::isfinite(value)) {
    return Null();
  }
  Separate();
  char buf[32];
  out_.append(buf,
              std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, 6).ptr);
  return *this;
}

Writer& Writer::Bool(bool value) { return Raw(value ? "true" : "false"); }

Writer& Writer::Null() { return Raw("null"); }

Writer& Writer::Raw(std::string_view json) {
  Separate();
  out_.append(json.empty() ? "null" : json);
  return *this;
}

std::string Writer::Take() {
  need_comma_ = false;
  return std::exchange(out_, std::string());
}

// ---- Reader -----------------------------------------------------------------

const Value* Value::Find(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) {
      return &v;
    }
  }
  return nullptr;
}

uint64_t Value::U64(std::string_view key, uint64_t fallback) const {
  const Value* v = Find(key);
  return v != nullptr && v->type == Type::kNumber ? v->integer : fallback;
}

std::string Value::Str(std::string_view key, std::string_view fallback) const {
  const Value* v = Find(key);
  return std::string(v != nullptr && v->type == Type::kString ? v->string : fallback);
}

bool Value::Bool(std::string_view key) const {
  const Value* v = Find(key);
  return v != nullptr && v->type == Type::kBool && v->boolean;
}

namespace {

// Recursive descent over one document; every failure leaves pos_ at the
// offending byte. Nesting is capped so a hostile file cannot exhaust the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  bool Document(Value* out) { return ParseValue(out, 0) && (SkipWs(), pos_ == text_.size()); }
  size_t pos() const { return pos_; }

 private:
  void SkipWs() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      return false;
    }
    pos_ += word.size();
    return true;
  }
  bool Hex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) {
      return false;
    }
    const char* begin = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(begin, begin + 4, *out, 16);
    if (ec != std::errc() || end != begin + 4) {
      return false;
    }
    pos_ += 4;
    return true;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) {
      return false;
    }
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return false;
      }
      const char esc = text_[pos_++];
      uint32_t cp = 0;
      switch (esc) {
        case '"':
        case '\\':
        case '/':
          out->push_back(esc);
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u':
          // One code point, UTF-8 encoded; surrogate pairs are not joined.
          if (!Hex4(&cp)) {
            return false;
          }
          if (cp < 0x80) {
            out->push_back(static_cast<char>(cp));
          } else if (cp < 0x800) {
            out->push_back(static_cast<char>(0xc0 | (cp >> 6)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          } else {
            out->push_back(static_cast<char>(0xe0 | (cp >> 12)));
            out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3f)));
            out->push_back(static_cast<char>(0x80 | (cp & 0x3f)));
          }
          break;
        default:
          --pos_;
          return false;
      }
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // the closing quote
    return true;
  }
  bool ParseNumber(Value* out) {
    const size_t begin = pos_;
    bool plain = true;  // digits only: a non-negative integer literal
    while (pos_ < text_.size() &&
           std::string_view("0123456789+-.eE").find(text_[pos_]) != std::string_view::npos) {
      plain = plain && text_[pos_] >= '0' && text_[pos_] <= '9';
      ++pos_;
    }
    const char* first = text_.data() + begin;
    const char* last = text_.data() + pos_;
    out->type = Value::Type::kNumber;
    const auto [end, ec] = std::from_chars(first, last, out->number);
    if (ec != std::errc() || end != last) {
      pos_ = begin;
      return false;
    }
    if (plain && std::from_chars(first, last, out->integer).ec != std::errc()) {
      out->integer = 0;  // wider than 64 bits: only the double stands
    }
    return true;
  }
  bool ParseValue(Value* out, int depth) {
    constexpr int kMaxDepth = 256;
    SkipWs();
    if (pos_ >= text_.size() || depth > kMaxDepth) {
      return false;
    }
    switch (text_[pos_]) {
      case 'n':
        return Literal("null");
      case 't':
        out->type = Value::Type::kBool;
        out->boolean = true;
        return Literal("true");
      case 'f':
        out->type = Value::Type::kBool;
        return Literal("false");
      case '"':
        out->type = Value::Type::kString;
        return ParseString(&out->string);
      case '[':
        ++pos_;
        out->type = Value::Type::kArray;
        if (Consume(']')) {
          return true;
        }
        do {
          if (!ParseValue(&out->array.emplace_back(), depth + 1)) {
            return false;
          }
        } while (Consume(','));
        return Consume(']');
      case '{':
        ++pos_;
        out->type = Value::Type::kObject;
        if (Consume('}')) {
          return true;
        }
        do {
          std::string key;
          if (!ParseString(&key) || !Consume(':')) {
            return false;
          }
          Value* member = &out->object.emplace_back(std::move(key), Value{}).second;
          if (!ParseValue(member, depth + 1)) {
            return false;
          }
        } while (Consume(','));
        return Consume('}');
      default:
        return ParseNumber(out);
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<Value> Parse(std::string_view text, size_t* error_offset) {
  Parser parser(text);
  Value doc;
  if (!parser.Document(&doc)) {
    if (error_offset != nullptr) {
      *error_offset = parser.pos();
    }
    return std::nullopt;
  }
  return doc;
}

}  // namespace spv::json
