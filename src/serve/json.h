#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

/// \file json.h
/// \brief Minimal JSON value type for the serving front-end's
/// newline-delimited request/response protocol. Supports the full JSON
/// grammar (objects, arrays, strings with escapes, numbers, bool, null)
/// with a recursion-depth guard; numbers are doubles throughout.

namespace goggles::serve {

/// \brief A parsed JSON value (tagged union).
///
/// Packed number arrays: Parse stores a non-empty array whose elements
/// are all numbers as one contiguous `std::vector<double>` (see
/// number_array()) instead of one node per element, so a label
/// request's pixels cost one allocation rather than thousands of nodes.
/// Whether an array is packed depends only on its content: every
/// element that Parse would read as a number counts (`.5` and `-.5`
/// included), and an array that meets a non-number falls back to nodes,
/// in document order. `[]` and arrays built with Append are node-based;
/// Append onto a packed array converts it to nodes first. Dump writes
/// the same bytes for either form. items() on a packed array builds the
/// element nodes on first call and keeps them: that first call writes
/// to the value, so it is NOT safe under concurrent const access (a
/// parsed request is owned by one decode worker; call items() once
/// before sharing a parsed packed array across threads).
class JsonValue {
 public:
  /// \brief The JSON value kinds.
  enum class Type {
    kNull,    ///< JSON null
    kBool,    ///< true / false
    kNumber,  ///< any JSON number (stored as double)
    kString,  ///< string
    kArray,   ///< ordered element list
    kObject   ///< ordered key/value member list
  };

  /// \brief Constructs null.
  JsonValue() = default;
  /// \brief Constructs a boolean value.
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}          // NOLINT
  /// \brief Constructs a number value.
  JsonValue(double d) : type_(Type::kNumber), number_(d) {}    // NOLINT
  /// \brief Constructs a number value from an int.
  JsonValue(int i)                                             // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  /// \brief Constructs a number value from an int64 (precision-limited
  /// to the double mantissa, like everything JSON).
  JsonValue(int64_t i)                                         // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  /// \brief Constructs a string value.
  JsonValue(std::string s)                                     // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}
  /// \brief Constructs a string value from a C string.
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}  // NOLINT

  /// \brief An empty JSON array.
  static JsonValue MakeArray() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  /// \brief An empty JSON object.
  static JsonValue MakeObject() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  /// \brief This value's kind.
  Type type() const { return type_; }
  /// \brief True iff this is null.
  bool is_null() const { return type_ == Type::kNull; }
  /// \brief True iff this is a boolean.
  bool is_bool() const { return type_ == Type::kBool; }
  /// \brief True iff this is a number.
  bool is_number() const { return type_ == Type::kNumber; }
  /// \brief True iff this is a string.
  bool is_string() const { return type_ == Type::kString; }
  /// \brief True iff this is an array.
  bool is_array() const { return type_ == Type::kArray; }
  /// \brief True iff this is an object.
  bool is_object() const { return type_ == Type::kObject; }

  /// \brief The boolean payload (valid when is_bool()).
  bool bool_value() const { return bool_; }
  /// \brief The numeric payload (valid when is_number()).
  double number() const { return number_; }
  /// \brief The string payload (valid when is_string()).
  const std::string& str() const { return string_; }
  /// \brief Array elements in document order (valid when is_array()).
  /// On a packed array the nodes are built on the first call (see the
  /// class comment on thread safety).
  const std::vector<JsonValue>& items() const {
    if (items_.size() < numbers_.size()) {
      items_.assign(numbers_.begin(), numbers_.end());
    }
    return items_;
  }
  /// \brief The elements of a packed number array in document order;
  /// nullptr unless this is an array that Parse packed.
  const std::vector<double>* number_array() const {
    return numbers_.empty() ? nullptr : &numbers_;
  }
  /// \brief Object members in insertion order (valid when is_object()); a
  /// parsed object keeps every member of a repeated key.
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// \brief Object member lookup; nullptr when absent or not an object.
  /// For a repeated key, the last member's value.
  const JsonValue* Find(const std::string& key) const;

  /// \brief Appends an array element (converts a null value to an array).
  void Append(JsonValue v);

  /// \brief Sets an object member, replacing an existing key (converts a
  /// null value to an object). Insertion order is preserved by Dump().
  void Set(const std::string& key, JsonValue v);

  /// \brief Compact JSON serialization.
  std::string Dump() const;

  /// \brief Parses a complete JSON document (trailing garbage is an
  /// error).
  static Result<JsonValue> Parse(const std::string& text);

 private:
  class Parser;  // json.cc; appends parsed members in O(1)

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  // A packed array keeps its elements in numbers_ (non-empty iff packed);
  // items_ then caches their nodes once items() has been called.
  std::vector<double> numbers_;
  mutable std::vector<JsonValue> items_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

}  // namespace goggles::serve
