/**
 * @file
 * Thin test-side adapter over obs::JsonValue / obs::parseJson (the
 * in-tree JSON reader that trace_report also uses), preserving the
 * historical `jsoncheck::` spelling of the observability tests. The
 * actual parser lives in src/obs/json_read.* so tests and tools
 * exercise the same code.
 */

#ifndef SCALESIM_TESTS_JSON_CHECK_HH
#define SCALESIM_TESTS_JSON_CHECK_HH

#include <iomanip>
#include <sstream>
#include <string>

#include "obs/json_read.hpp"

namespace jsoncheck
{

using Value = scalesim::obs::JsonValue;

/** Convenience: parse text, returning success. */
inline bool
valid(const std::string& text, Value& out)
{
    return scalesim::obs::parseJson(text, out);
}

/**
 * Canonical text of a parsed value: members in key order, numbers at
 * round-trip precision. Two documents are structurally equal when
 * their canonical texts are.
 */
inline void
canonical(const Value& v, std::ostream& out)
{
    switch (v.kind) {
      case Value::Kind::Null:
        out << "null";
        break;
      case Value::Kind::Bool:
        out << (v.boolean ? "true" : "false");
        break;
      case Value::Kind::Number:
        out << std::setprecision(17) << v.number;
        break;
      case Value::Kind::String:
        out << '"' << v.text << '"';
        break;
      case Value::Kind::Array:
        out << '[';
        for (const Value& item : v.items) {
            canonical(item, out);
            out << ',';
        }
        out << ']';
        break;
      case Value::Kind::Object:
        out << '{';
        for (const auto& [key, member] : v.members) {
            out << '"' << key << "\":";
            canonical(member, out);
            out << ',';
        }
        out << '}';
        break;
    }
}

inline std::string
canonical(const Value& v)
{
    std::ostringstream out;
    canonical(v, out);
    return out.str();
}

} // namespace jsoncheck

#endif // SCALESIM_TESTS_JSON_CHECK_HH
