/**
 * @file
 * Minimal key=value configuration store for the CLI tool and tests.
 *
 * Syntax (one entry per line or per command-line token):
 *     key = value        # comment
 * Section headers are not needed; keys are dotted ("dram.trh = 500").
 *
 * The store is strict: setting the same key twice through parsing is
 * fatal (the message names both origins), and consumers can call
 * rejectUnknownKeys() after reading their keys to make any typo'd /
 * unrecognized key fatal too -- a misspelled fault-plan key must not
 * yield a clean run.
 */

#ifndef MOPAC_COMMON_CONFIG_HH
#define MOPAC_COMMON_CONFIG_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace mopac
{

/** Parsed key=value configuration with typed getters and defaults. */
class Config
{
  public:
    Config() = default;

    /** Parse "key=value" tokens (e.g. from argv); duplicates fatal. */
    void parseArgs(const std::vector<std::string> &tokens);

    /** Parse a config file; fatal() on I/O error or duplicate keys. */
    void parseFile(const std::string &path);

    /** Parse a single "key=value" line; ignores blanks and comments. */
    void parseLine(const std::string &line);

    /**
     * Set a key explicitly (programmatic override): unlike parsing,
     * replacing an existing value is allowed.
     */
    void set(const std::string &key, const std::string &value);

    /** Is the key present?  Marks it consumed. */
    bool has(const std::string &key) const;

    /**
     * Typed getters returning @p def when the key is absent.  Every
     * lookup marks the key consumed (see rejectUnknownKeys()).
     * getInt() and getUint() read decimal, 0x hex or 0-prefixed octal
     * (getInt() also a leading '-') and are fatal on a value outside
     * [@p min_value, @p max_value] (default: the full 64-bit range of
     * their type), so a narrower field never silently wraps.
     */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;
    std::int64_t getInt(
        const std::string &key, std::int64_t def = 0,
        std::int64_t min_value =
            std::numeric_limits<std::int64_t>::min(),
        std::int64_t max_value =
            std::numeric_limits<std::int64_t>::max()) const;
    std::uint64_t getUint(
        const std::string &key, std::uint64_t def = 0,
        std::uint64_t max_value =
            std::numeric_limits<std::uint64_t>::max()) const;
    double getDouble(const std::string &key, double def = 0.0) const;
    bool getBool(const std::string &key, bool def = false) const;

    /** All keys in sorted order (for dumping the effective config). */
    std::vector<std::string> keys() const;

    /** Keys never consumed by any getter / has(), sorted. */
    std::vector<std::string> unconsumedKeys() const;

    /**
     * fatal() if any key was parsed but never consumed, naming each
     * offending key and where it came from.  Call after all getters.
     */
    void rejectUnknownKeys(const std::string &context) const;

  private:
    struct Entry
    {
        std::string value;
        /** "file:line", "'token'", or "set()" -- for error messages. */
        std::string origin;
        /** Touched by a getter / has() (mutable: getters are const). */
        mutable bool consumed = false;
    };

    /** Shared insert path; fatal() on duplicates from parsing. */
    void insert(const std::string &key, const std::string &value,
                const std::string &origin);

    /** Parse one line with a named origin (for error messages). */
    void parseLine(const std::string &line, const std::string &origin);

    std::map<std::string, Entry> values_;
};

} // namespace mopac

#endif // MOPAC_COMMON_CONFIG_HH
