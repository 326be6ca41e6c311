/**
 * @file
 * Config implementation.
 */

#include "config.hh"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "log.hh"

namespace mopac
{

namespace
{

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) {
        ++b;
    }
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) {
        --e;
    }
    return s.substr(b, e - b);
}

/**
 * Read @p text with the prefixes strtoull(..., 0) takes -- decimal,
 * 0x hex or 0-prefixed octal -- but through from_chars: no sign, no
 * whitespace, and an overflow fails instead of clamping to 2^64 - 1.
 */
bool
parseUnsigned(std::string_view text, std::uint64_t &v)
{
    int base = 10;
    std::size_t skip = 0;
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        base = 16;
        skip = 2;
    } else if (text.size() > 1 && text[0] == '0') {
        base = 8;
        skip = 1;
    }
    const char *last = text.data() + text.size();
    const auto [end, ec] =
        std::from_chars(text.data() + skip, last, v, base);
    return ec == std::errc() && end == last;
}

} // namespace

void
Config::parseArgs(const std::vector<std::string> &tokens)
{
    for (const auto &tok : tokens) {
        parseLine(tok, "'" + tok + "'");
    }
}

void
Config::parseFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        fatal("cannot open config file '{}'", path);
    }
    std::string line;
    unsigned lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        parseLine(line, path + ":" + std::to_string(lineno));
    }
}

void
Config::parseLine(const std::string &line)
{
    parseLine(line, "'" + trim(line) + "'");
}

void
Config::parseLine(const std::string &line, const std::string &origin)
{
    std::string body = line;
    if (const auto hash = body.find('#'); hash != std::string::npos) {
        body = body.substr(0, hash);
    }
    body = trim(body);
    if (body.empty()) {
        return;
    }
    const auto eq = body.find('=');
    if (eq == std::string::npos) {
        fatal("malformed config entry '{}': expected key=value", line);
    }
    const std::string key = trim(body.substr(0, eq));
    const std::string value = trim(body.substr(eq + 1));
    if (key.empty()) {
        fatal("malformed config entry '{}': empty key", line);
    }
    insert(key, value, origin);
}

void
Config::insert(const std::string &key, const std::string &value,
               const std::string &origin)
{
    const auto [it, fresh] = values_.emplace(key, Entry{value, origin});
    if (!fresh) {
        fatal("config key '{}' set twice: first at {}, again at {} "
              "(drop one; later-wins is not supported)",
              key, it->second.origin, origin);
    }
}

void
Config::set(const std::string &key, const std::string &value)
{
    Entry &e = values_[key];
    e.value = value;
    e.origin = "set()";
}

bool
Config::has(const std::string &key) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) {
        return false;
    }
    it->second.consumed = true;
    return true;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) {
        return def;
    }
    it->second.consumed = true;
    return it->second.value;
}

std::int64_t
Config::getInt(const std::string &key, std::int64_t def,
               std::int64_t min_value, std::int64_t max_value) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) {
        return def;
    }
    it->second.consumed = true;
    const std::string &text = it->second.value;
    const bool negative = !text.empty() && text[0] == '-';
    const std::string_view digits =
        std::string_view(text).substr(negative ? 1 : 0);
    // The magnitude of INT64_MIN is one past INT64_MAX.
    const std::uint64_t limit = (1ull << 63) - (negative ? 0 : 1);
    std::uint64_t magnitude = 0;
    const bool parsed =
        parseUnsigned(digits, magnitude) && magnitude <= limit;
    // Two's-complement wrap (defined since C++20) maps 2^63 to
    // INT64_MIN.
    const std::int64_t v =
        static_cast<std::int64_t>(negative ? 0 - magnitude : magnitude);
    if (!parsed || v < min_value || v > max_value) {
        fatal("config key '{}': '{}' is not an integer in [{}, {}]",
              key, text, min_value, max_value);
    }
    return v;
}

std::uint64_t
Config::getUint(const std::string &key, std::uint64_t def,
                std::uint64_t max_value) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) {
        return def;
    }
    it->second.consumed = true;
    const std::string &text = it->second.value;
    std::uint64_t v = 0;
    if (!parseUnsigned(text, v) || v > max_value) {
        fatal("config key '{}': '{}' is not an unsigned integer", key,
              text);
    }
    return v;
}

double
Config::getDouble(const std::string &key, double def) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) {
        return def;
    }
    it->second.consumed = true;
    char *end = nullptr;
    const double v = std::strtod(it->second.value.c_str(), &end);
    if (end == it->second.value.c_str() || *end != '\0') {
        fatal("config key '{}': '{}' is not a number", key,
              it->second.value);
    }
    return v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    const auto it = values_.find(key);
    if (it == values_.end()) {
        return def;
    }
    it->second.consumed = true;
    const std::string &v = it->second.value;
    if (v == "true" || v == "1" || v == "yes" || v == "on") {
        return true;
    }
    if (v == "false" || v == "0" || v == "no" || v == "off") {
        return false;
    }
    fatal("config key '{}': '{}' is not a boolean", key, v);
}

std::vector<std::string>
Config::keys() const
{
    std::vector<std::string> out;
    out.reserve(values_.size());
    for (const auto &[k, v] : values_) {
        out.push_back(k);
    }
    return out;
}

std::vector<std::string>
Config::unconsumedKeys() const
{
    std::vector<std::string> out;
    for (const auto &[k, e] : values_) {
        if (!e.consumed) {
            out.push_back(k);
        }
    }
    return out;
}

void
Config::rejectUnknownKeys(const std::string &context) const
{
    const std::vector<std::string> unknown = unconsumedKeys();
    if (unknown.empty()) {
        return;
    }
    std::string list;
    for (const std::string &key : unknown) {
        list += format("\n  {} (from {})", key,
                       values_.at(key).origin);
    }
    fatal("{}: unknown config key{}:{}", context,
          unknown.size() == 1 ? "" : "s", list);
}

} // namespace mopac
