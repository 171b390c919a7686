// JSON value, serializer, and parser. The study emits machine-readable
// result manifests (per-search winners, ablation breakdowns) alongside CSVs,
// and the nn serialization module round-trips model weights through it.
#pragma once

#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace qhdl::util {

/// Immutable-ish JSON tree with value semantics.
class Json {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Json() : type_(Type::Null) {}
  Json(std::nullptr_t) : type_(Type::Null) {}
  Json(bool b) : type_(Type::Bool), bool_(b) {}
  Json(double n) : type_(Type::Number), number_(n) {}
  Json(int n) : type_(Type::Number), number_(n) {}
  Json(long n) : type_(Type::Number), number_(static_cast<double>(n)) {}
  Json(unsigned long n) : type_(Type::Number), number_(static_cast<double>(n)) {}
  Json(long long n) : type_(Type::Number), number_(static_cast<double>(n)) {}
  Json(unsigned long long n)
      : type_(Type::Number), number_(static_cast<double>(n)) {}
  Json(const char* s) : type_(Type::String), string_(s) {}
  Json(std::string s) : type_(Type::String), string_(std::move(s)) {}
  Json(std::string_view s) : type_(Type::String), string_(s) {}

  static Json array();
  static Json object();

  template <typename T>
  static Json array_of(const std::vector<T>& values) {
    Json a = array();
    for (const auto& v : values) a.push_back(Json(v));
    return a;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }

  /// Array ops (throws std::logic_error if not an array).
  void push_back(Json value);
  std::size_t size() const;

  /// Object ops (throws std::logic_error if not an object).
  Json& operator[](const std::string& key);
  bool contains(const std::string& key) const;

  // --- read accessors (throw std::logic_error on type mismatch) ----------
  bool as_bool() const;
  double as_number() const;
  /// Checked integer read for numbers that arrive from a peer or a file:
  /// throws std::invalid_argument unless the number is integral and
  /// std::out_of_range unless Int can hold it (negatives never fit an
  /// unsigned Int). A blind cast of such a double is undefined behaviour.
  template <typename Int>
  Int as_integer() const {
    static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>);
    return static_cast<Int>(checked_integer(std::numeric_limits<Int>::digits,
                                            std::is_signed_v<Int>));
  }
  const std::string& as_string() const;
  /// Array element (checked).
  const Json& at(std::size_t index) const;
  /// Object member (checked; throws std::out_of_range if missing).
  const Json& at(const std::string& key) const;
  /// Object members in sorted key order (throws std::logic_error if not an
  /// object) — for consumers that enumerate keys, e.g. checkpoint manifests.
  const std::map<std::string, Json>& object_items() const;

  /// Parses JSON text; throws std::invalid_argument with position info on
  /// malformed input.
  static Json parse(std::string_view text);

  /// Reads and parses a file; throws std::runtime_error on I/O failure.
  static Json parse_file(const std::string& path);

  /// Serializes; indent > 0 pretty-prints.
  std::string dump(int indent = 0) const;

  /// Writes to a file via atomic temp+flush+rename (util/atomic_file.hpp);
  /// throws std::runtime_error on I/O failure with the target untouched.
  void write_file(const std::string& path, int indent = 2) const;

 private:
  void dump_impl(std::string& out, int indent, int depth) const;
  /// as_number(), checked to lie in [-2^bits, 2^bits) when signed, else in
  /// [0, 2^bits), and to have no fractional part.
  double checked_integer(int bits, bool is_signed) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  // std::map keeps keys sorted -> deterministic output.
  std::map<std::string, Json> object_;
};

}  // namespace qhdl::util
