// Minimal JSON document model for the observability layer.
//
// Everything the telemetry subsystem exports - metrics snapshots, Chrome
// trace files, run artifacts - is built as a Json tree and serialized
// through dump(). Objects preserve insertion order so artifact schemas stay
// byte-stable across runs, and parse() exists so tests can round-trip what
// the writers produce. No external dependency; the container toolchain has
// no JSON library baked in.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fades::obs {

class Json {
 public:
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };

  Json() = default;
  Json(std::nullptr_t) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double d) : type_(Type::Number), num_(d) {}
  Json(int i) : Json(static_cast<std::int64_t>(i)) {}
  Json(unsigned u) : Json(static_cast<std::uint64_t>(u)) {}
  Json(long long i) : Json(static_cast<std::int64_t>(i)) {}
  Json(unsigned long long u) : Json(static_cast<std::uint64_t>(u)) {}
  Json(std::int64_t i)
      : type_(Type::Number), num_(static_cast<double>(i)), int_(i),
        isInt_(true) {}
  Json(std::uint64_t u)
      : type_(Type::Number), num_(static_cast<double>(u)),
        int_(static_cast<std::int64_t>(u)), isInt_(true), isUnsigned_(true) {}
  Json(std::string s) : type_(Type::String), str_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}

  static Json array() { return Json(Type::Array); }
  static Json object() { return Json(Type::Object); }

  Type type() const { return type_; }
  bool isNull() const { return type_ == Type::Null; }
  bool isObject() const { return type_ == Type::Object; }
  bool isArray() const { return type_ == Type::Array; }
  bool isNumber() const { return type_ == Type::Number; }
  bool isString() const { return type_ == Type::String; }

  bool asBool() const { return bool_; }
  double asNumber() const { return num_; }
  std::int64_t asInt() const { return isInt_ ? int_ : static_cast<std::int64_t>(num_); }
  const std::string& asString() const { return str_; }

  // --- array -------------------------------------------------------------
  void push(Json value) {
    type_ = Type::Array;
    items_.push_back(std::move(value));
  }
  const std::vector<Json>& items() const { return items_; }

  // --- object (ordered) ----------------------------------------------------
  /// Insert or overwrite a member; insertion order is serialization order.
  Json& set(const std::string& key, Json value);
  /// Member lookup; nullptr when absent (or not an object).
  const Json* find(const std::string& key) const;
  /// Typed member read: when member `key` is present with the requested
  /// type (a string, or a number for the numeric overloads), store it in
  /// `out` and return true; otherwise leave `out` alone and return false.
  /// The integer overloads read asInt(), so a negative number read as
  /// uint64_t wraps to a huge value that a caller's bounds check rejects.
  bool get(const std::string& key, std::string& out) const;
  bool get(const std::string& key, double& out) const;
  bool get(const std::string& key, std::int64_t& out) const;
  bool get(const std::string& key, std::uint64_t& out) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }

  std::size_t size() const {
    return type_ == Type::Array ? items_.size() : members_.size();
  }

  /// Serialize; indent 0 = compact one-liner, otherwise pretty-printed.
  std::string dump(int indent = 0) const;

  /// Strict parser for tests and artifact readers. Returns nullopt on
  /// malformed input and stores a short diagnostic in *error.
  static std::optional<Json> parse(std::string_view text,
                                   std::string* error = nullptr);

  /// JSON string escaping, exposed for writers that stream directly.
  static std::string escape(std::string_view s);

 private:
  explicit Json(Type t) : type_(t) {}
  void dumpTo(std::string& out, int indent, int depth) const;

  Type type_ = Type::Null;
  bool bool_ = false;
  double num_ = 0.0;
  std::int64_t int_ = 0;
  bool isInt_ = false;
  bool isUnsigned_ = false;
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;
};

}  // namespace fades::obs
