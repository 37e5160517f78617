#ifndef LIGHTOR_TESTING_TREE_JSON_H_
#define LIGHTOR_TESTING_TREE_JSON_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"

namespace lightor::testing {

/// The heap-node JSON tree parser that the wire codec used before the
/// arena `net::JsonDoc`, frozen as an independent reference. Tests hold
/// JsonDoc's strictness and decoded values against it, and hotpath_bench
/// measures it as the legacy baseline of `json_decode_arena`. Production
/// code parses with net::JsonDoc only.
///
/// Objects keep insertion order; a duplicate key is a parse error.
/// `Parse` is strict: the entire input must be one JSON value (trailing
/// bytes are an error), nesting is capped, numbers must be finite, and
/// errors read "json: <what> at byte <pos>".
class TreeJson {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  using Array = std::vector<TreeJson>;
  using Member = std::pair<std::string, TreeJson>;
  using Object = std::vector<Member>;

  /// Strict whole-input parse.
  static common::Result<TreeJson> Parse(std::string_view text);

  bool is_array() const { return type_ == Type::kArray; }

  /// Typed accessors; valid only for the matching type.
  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const Array& AsArray() const { return array_; }
  const Object& AsObject() const { return object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const TreeJson* Find(std::string_view key) const;

 private:
  friend class TreeJsonParser;

  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace lightor::testing

#endif  // LIGHTOR_TESTING_TREE_JSON_H_
