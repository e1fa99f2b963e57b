#include "serve/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>

namespace goggles::serve {
namespace {

constexpr int kMaxDepth = 64;

}  // namespace

/// Recursive-descent JSON parser over a string view.
class JsonValue::Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Result<JsonValue> ParseDocument() {
    GOGGLES_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("json: trailing characters at offset " +
                                     std::to_string(pos_));
    }
    return value;
  }

 private:
  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Status::InvalidArgument("json: nesting too deep");
    }
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      return Status::InvalidArgument("json: unexpected end of input");
    }
    const char c = text_[pos_];
    if (GoesToParseNumber(c)) {
      double value = 0.0;
      GOGGLES_RETURN_NOT_OK(ParseNumber(&value));
      return JsonValue(value);
    }
    switch (c) {
      case '{':
        return ParseObject(depth);
      case '[':
        return ParseArray(depth);
      case '"': {
        std::string s;
        GOGGLES_RETURN_NOT_OK(ParseString(&s));
        return JsonValue(std::move(s));
      }
      case 't':
        GOGGLES_RETURN_NOT_OK(Expect("true"));
        return JsonValue(true);
      case 'f':
        GOGGLES_RETURN_NOT_OK(Expect("false"));
        return JsonValue(false);
      default:  // 'n'
        GOGGLES_RETURN_NOT_OK(Expect("null"));
        return JsonValue();
    }
  }

  /// Every first character but those of a container, string or literal
  /// goes to ParseNumber: a number token, or a stray character that
  /// ParseNumber rejects.
  static bool GoesToParseNumber(char c) {
    return c != '{' && c != '[' && c != '"' && c != 't' && c != 'f' &&
           c != 'n';
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue obj = JsonValue::MakeObject();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      GOGGLES_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Status::InvalidArgument("json: expected ':' in object");
      }
      ++pos_;
      GOGGLES_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      // Appended, not Set: a replacing insert scans every earlier member,
      // which makes parsing quadratic in the member count.
      obj.members_.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("json: unterminated object");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return obj;
      }
      return Status::InvalidArgument("json: expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue arr = JsonValue::MakeArray();
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      // While every element so far was a number, numbers go straight
      // into the packed vector, through the same ParseNumber that
      // ParseValue would call; the first other element turns the array
      // into nodes (Append), in document order.
      SkipWhitespace();
      if (arr.items_.empty() && depth < kMaxDepth && pos_ < text_.size() &&
          GoesToParseNumber(text_[pos_])) {
        double value = 0.0;
        GOGGLES_RETURN_NOT_OK(ParseNumber(&value));
        arr.numbers_.push_back(value);
      } else {
        GOGGLES_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
        arr.Append(std::move(value));
      }
      SkipWhitespace();
      if (pos_ >= text_.size()) {
        return Status::InvalidArgument("json: unterminated array");
      }
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return arr;
      }
      return Status::InvalidArgument("json: expected ',' or ']' in array");
    }
  }

  Status ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Status::InvalidArgument("json: expected string");
    }
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return Status::OK();
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Status::InvalidArgument(
            "json: unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        ++pos_;
        continue;
      }
      // Escape sequence.
      if (pos_ + 1 >= text_.size()) break;
      const char esc = text_[pos_ + 1];
      pos_ += 2;
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
          GOGGLES_RETURN_NOT_OK(ParseUnicodeEscape(out));
          break;
        }
        default:
          return Status::InvalidArgument("json: invalid escape sequence");
      }
    }
    return Status::InvalidArgument("json: unterminated string");
  }

  Status ParseUnicodeEscape(std::string* out) {
    uint32_t code = 0;
    GOGGLES_RETURN_NOT_OK(ReadHex4(&code));
    if (code >= 0xD800 && code <= 0xDBFF) {
      // High surrogate: a low surrogate must follow.
      if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
          text_[pos_ + 1] != 'u') {
        return Status::InvalidArgument("json: unpaired high surrogate");
      }
      pos_ += 2;
      uint32_t low = 0;
      GOGGLES_RETURN_NOT_OK(ReadHex4(&low));
      if (low < 0xDC00 || low > 0xDFFF) {
        return Status::InvalidArgument("json: invalid low surrogate");
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    } else if (code >= 0xDC00 && code <= 0xDFFF) {
      return Status::InvalidArgument("json: unpaired low surrogate");
    }
    // UTF-8 encode.
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
    return Status::OK();
  }

  Status ReadHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) {
      return Status::InvalidArgument("json: truncated \\u escape");
    }
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + static_cast<size_t>(i)];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Status::InvalidArgument("json: invalid \\u escape digit");
      }
    }
    pos_ += 4;
    *out = value;
    return Status::OK();
  }

  /// The one number grammar, for single values and packed arrays alike:
  /// the token is the longest run of number characters at pos_, and it
  /// must convert as a whole to a finite double.
  Status ParseNumber(double* out) {
    // Pixel arrays make this THE parser hot path (thousands of doubles
    // per label request), so the token converts in place with
    // std::from_chars — correctly rounded like strtod, allocation-free,
    // and bounded by the text. It runs first on the rest of the text: a
    // finite value that stops before a non-number character consumed
    // exactly the token, so the usual token is read once. Anything else
    // (a malformed token, inf/nan spellings, out-of-range literals) is
    // scanned out and judged as a whole below; the token string is
    // materialized only on the error path.
    const char* first = text_.data() + pos_;
    const char* text_end = text_.data() + text_.size();
    double value = 0.0;
    {
      const auto [end, ec] = std::from_chars(first, text_end, value);
      if (ec == std::errc() && std::isfinite(value) &&
          (end == text_end || !IsNumberChar(*end))) {
        pos_ += static_cast<size_t>(end - first);
        *out = value;
        return Status::OK();
      }
    }
    const size_t start = pos_;
    while (pos_ < text_.size() && IsNumberChar(text_[pos_])) ++pos_;
    if (pos_ == start) {
      return Status::InvalidArgument("json: unexpected character");
    }
    const char* last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || end != last || !std::isfinite(value)) {
      // Literals beyond double range (1e999, 1e-400) are rejected
      // rather than fed into the model as inf or a silent zero.
      // Subnormals (9.88e-324) parse: Dump emits them for tiny soft
      // labels, so every dumped document must parse back.
      return Status::InvalidArgument("json: malformed number '" +
                                     text_.substr(start, pos_ - start) + "'");
    }
    *out = value;
    return Status::OK();
  }

  static bool IsNumberChar(char c) {
    return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
           c == '+' || c == '-';
  }

  Status Expect(const char* literal) {
    const size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) {
      return Status::InvalidArgument("json: invalid literal");
    }
    pos_ += len;
    return Status::OK();
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

namespace {

void DumpString(const std::string& s, std::string* out) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\b': *out += "\\b"; break;
      case '\f': *out += "\\f"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void DumpNumber(double d, std::string* out) {
  if (!std::isfinite(d)) {
    *out += "null";  // NaN/inf are not valid JSON tokens
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", d);
  *out += buf;
}

void DumpValue(const JsonValue& v, std::string* out) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      *out += "null";
      break;
    case JsonValue::Type::kBool:
      *out += v.bool_value() ? "true" : "false";
      break;
    case JsonValue::Type::kNumber:
      DumpNumber(v.number(), out);
      break;
    case JsonValue::Type::kString:
      DumpString(v.str(), out);
      break;
    case JsonValue::Type::kArray: {
      out->push_back('[');
      if (const std::vector<double>* numbers = v.number_array()) {
        for (size_t i = 0; i < numbers->size(); ++i) {
          if (i > 0) out->push_back(',');
          DumpNumber((*numbers)[i], out);
        }
      } else {
        const auto& items = v.items();
        for (size_t i = 0; i < items.size(); ++i) {
          if (i > 0) out->push_back(',');
          DumpValue(items[i], out);
        }
      }
      out->push_back(']');
      break;
    }
    case JsonValue::Type::kObject: {
      out->push_back('{');
      const auto& members = v.members();
      for (size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out->push_back(',');
        DumpString(members[i].first, out);
        out->push_back(':');
        DumpValue(members[i].second, out);
      }
      out->push_back('}');
      break;
    }
  }
}

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (type_ != Type::kObject) return nullptr;
  for (auto it = members_.rbegin(); it != members_.rend(); ++it) {
    if (it->first == key) return &it->second;
  }
  return nullptr;
}

void JsonValue::Append(JsonValue v) {
  if (type_ == Type::kNull) type_ = Type::kArray;
  if (!numbers_.empty()) {  // a packed array becomes node-based
    items();                // builds the element nodes
    numbers_ = {};
  }
  items_.push_back(std::move(v));
}

void JsonValue::Set(const std::string& key, JsonValue v) {
  if (type_ == Type::kNull) type_ = Type::kObject;
  for (auto& [k, existing] : members_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  members_.emplace_back(key, std::move(v));
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpValue(*this, &out);
  return out;
}

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  Parser parser(text);
  return parser.ParseDocument();
}

}  // namespace goggles::serve
