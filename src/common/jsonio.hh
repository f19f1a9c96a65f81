/**
 * @file
 * JSON in and out, dependency-free.
 *
 * Output: the tiny ordered JsonObject / jsonArray builders that every
 * machine-readable artifact (BENCH_*.json, specslice_run --json) is
 * rendered with. They live here rather than in bench/bench_common.hh
 * so src/sim code (the result documents, the result cache) can emit
 * the same byte-exact documents as the bench drivers.
 * bench_common.hh re-exports them unchanged.
 *
 * Input: a small recursive-descent parser producing a Value tree. The
 * result cache parses its cached result documents with it. It accepts
 * exactly the JSON the builders emit plus ordinary hand-written
 * documents (nesting depth is bounded; numbers are kept as both
 * double and, when exact, int64/uint64).
 */

#ifndef SPECSLICE_COMMON_JSONIO_HH
#define SPECSLICE_COMMON_JSONIO_HH

#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace specslice::json
{

// ---------------------------------------------------------------
// Output
// ---------------------------------------------------------------

/** Escape a string for embedding in a JSON document. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * A tiny ordered JSON object builder — enough for flat result records
 * and arrays of them; no external dependency.
 */
class JsonObject
{
  public:
    JsonObject &
    field(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &
    field(const std::string &key, double v)
    {
        char buf[64];
        if (v != v) {  // NaN: JSON has no literal for it
            return raw(key, "null");
        }
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        return raw(key, buf);
    }

    JsonObject &
    field(const std::string &key, const std::string &v)
    {
        // Appending rather than `"\"" + ... + "\""` keeps gcc 12's
        // -Wrestrict false positive out of every includer.
        std::string quoted(1, '"');
        quoted += jsonEscape(v);
        quoted += '"';
        return raw(key, quoted);
    }

    /** Insert a pre-rendered JSON value (object, array, number). */
    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        fields_.emplace_back(key, json);
        return *this;
    }

    std::string
    str() const
    {
        std::ostringstream os;
        os << "{";
        for (std::size_t i = 0; i < fields_.size(); ++i) {
            os << (i ? ", " : "")
               << '"' << jsonEscape(fields_[i].first) << "\": "
               << fields_[i].second;
        }
        os << "}";
        return os.str();
    }

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Render a JSON array from pre-rendered element strings. */
inline std::string
jsonArray(const std::vector<std::string> &elems)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < elems.size(); ++i)
        os << (i ? ", " : "") << elems[i];
    os << "]";
    return os.str();
}

// ---------------------------------------------------------------
// Input
// ---------------------------------------------------------------

/** A parsed JSON value. */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    /** The number's source token was integral and fits: exact. */
    bool isInt = false;
    std::int64_t intval = 0;
    std::string str;
    std::vector<Value> items;                       ///< Array
    std::vector<std::pair<std::string, Value>> members;  ///< Object

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isBool() const { return kind == Kind::Bool; }

    /** Object member by key (first match), or nullptr. */
    const Value *
    get(const std::string &key) const
    {
        for (const auto &[k, v] : members)
            if (k == key)
                return &v;
        return nullptr;
    }

    // Typed accessors with defaults (missing/mistyped -> dflt).
    std::string
    getStr(const std::string &key, const std::string &dflt = "") const
    {
        const Value *v = get(key);
        return v && v->isString() ? v->str : dflt;
    }

    std::uint64_t
    getU64(const std::string &key, std::uint64_t dflt = 0) const
    {
        const Value *v = get(key);
        if (!v || !v->isNumber())
            return dflt;
        if (v->isInt && v->intval >= 0)
            return static_cast<std::uint64_t>(v->intval);
        return v->number >= 0 ? static_cast<std::uint64_t>(v->number)
                              : dflt;
    }

    double
    getNum(const std::string &key, double dflt = 0.0) const
    {
        const Value *v = get(key);
        return v && v->isNumber() ? v->number : dflt;
    }
};

/**
 * Parse one JSON document. Trailing whitespace is allowed; trailing
 * garbage is an error. @return nullopt and set error on failure.
 */
std::optional<Value> parse(const std::string &text, std::string &error);

} // namespace specslice::json

#endif // SPECSLICE_COMMON_JSONIO_HH
