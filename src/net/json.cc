#include "net/json.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <system_error>

namespace fab::net {

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

Result<std::string> JsonValue::GetString(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_string()) {
    return Status::InvalidArgument("missing or non-string field \"" + key +
                                   "\"");
  }
  return v->str();
}

Result<double> JsonValue::GetNumber(const std::string& key) const {
  const JsonValue* v = Find(key);
  if (v == nullptr || !v->is_number()) {
    return Status::InvalidArgument("missing or non-number field \"" + key +
                                   "\"");
  }
  return v->number();
}

/// Single-pass recursive-descent parser over a complete in-memory
/// document. Every value is parsed straight into its destination node,
/// so an array element or object member is built in place rather than
/// returned and moved. Position-tracked errors ("at byte N") make
/// malformed client requests debuggable from the 400 response alone.
class JsonParser {
 public:
  JsonParser(const std::string& text, int max_depth)
      : text_(text), max_depth_(max_depth) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    FAB_RETURN_IF_ERROR(ParseValue(0, &value));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument(what + " at byte " + std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(const char* lit) {
    const size_t n = std::char_traits<char>::length(lit);
    if (text_.compare(pos_, n, lit) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  bool AtDigit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  void SkipDigits() {
    while (AtDigit()) ++pos_;
  }

  Status ParseValue(int depth, JsonValue* out) {
    if (depth > max_depth_) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"':
        out->type_ = JsonValue::Type::kString;
        return ParseString(&out->string_);
      case 't':
      case 'f':
        out->type_ = JsonValue::Type::kBool;
        if (ConsumeLiteral("true")) {
          out->bool_ = true;
          return Status::OK();
        }
        if (ConsumeLiteral("false")) {
          out->bool_ = false;
          return Status::OK();
        }
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) return Status::OK();
        return Error("invalid literal");
      default:
        if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber(out);
        return Error("expected a JSON value");
    }
  }

  Status ParseObject(int depth, JsonValue* out) {
    Consume('{');
    out->type_ = JsonValue::Type::kObject;
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    std::string key;
    while (true) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      key.clear();
      FAB_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      // A repeated key keeps its last value, as it always has.
      JsonValue& member = out->object_[std::move(key)];
      member = JsonValue();
      FAB_RETURN_IF_ERROR(ParseValue(depth + 1, &member));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::OK();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(int depth, JsonValue* out) {
    Consume('[');
    out->type_ = JsonValue::Type::kArray;
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    while (true) {
      out->array_.emplace_back();
      FAB_RETURN_IF_ERROR(ParseValue(depth + 1, &out->array_.back()));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::OK();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    Consume('"');
    while (true) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("invalid \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // needed by any fab payload; reject rather than mis-encode).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Error("surrogate \\u escapes unsupported");
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  /// RFC 8259 number: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
  /// The grammar is checked first; std::from_chars then converts the
  /// token in place, correctly rounded like strtod.
  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    Consume('-');
    if (Consume('0')) {
      if (AtDigit()) return Error("leading zero in number");
    } else if (AtDigit()) {
      SkipDigits();
    } else {
      return Error("malformed number");
    }
    if (Consume('.')) {
      if (!AtDigit()) return Error("malformed number");
      SkipDigits();
    }
    if (Consume('e') || Consume('E')) {
      if (!Consume('+')) Consume('-');
      if (!AtDigit()) return Error("malformed number");
      SkipDigits();
    }
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double parsed = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, parsed);
    if (r.ec == std::errc::result_out_of_range) {
      // from_chars leaves the value unset past the double range; strtod
      // gives the IEEE answer (inf, or zero / the nearest subnormal).
      parsed = std::strtod(std::string(first, last).c_str(), nullptr);
    } else if (r.ec != std::errc() || r.ptr != last) {
      pos_ = start;
      return Error("malformed number");
    }
    out->type_ = JsonValue::Type::kNumber;
    out->number_ = parsed;
    return Status::OK();
  }

  const std::string& text_;
  const int max_depth_;
  size_t pos_ = 0;
};

Result<JsonValue> ParseJson(const std::string& text, int max_depth) {
  return JsonParser(text, max_depth).Parse();
}

std::string EscapeJson(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

}  // namespace fab::net
