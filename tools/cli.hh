/**
 * @file
 * Minimal flag parsing shared by the command-line tools. Flags are
 * `--name value` pairs plus boolean `--name`; anything unknown is a
 * fatal usage error so typos never silently fall back to defaults.
 */

#ifndef GPX_TOOLS_CLI_HH
#define GPX_TOOLS_CLI_HH

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "util/version.hh"

namespace gpx {
namespace tools {

/** Parsed command line: flag -> value ("" for boolean flags). */
class Cli
{
  public:
    /**
     * @param argc/argv Program arguments.
     * @param value_flags Flags that take a value.
     * @param bool_flags Flags that do not.
     * @param usage Printed on any parse error.
     */
    Cli(int argc, char **argv, const std::set<std::string> &value_flags,
        const std::set<std::string> &bool_flags, const std::string &usage)
        : usage_(usage)
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                std::printf("%s", usage_.c_str());
                std::exit(0);
            }
            if (arg == "--version") {
                std::printf("gpx %s\n", kVersion);
                std::exit(0);
            }
            if (bool_flags.count(arg)) {
                flags_[arg] = "";
                continue;
            }
            if (!value_flags.count(arg))
                die("unknown flag: " + arg);
            if (i + 1 >= argc)
                die("flag " + arg + " needs a value");
            flags_[arg] = argv[++i];
            multi_[arg].push_back(flags_[arg]);
        }
    }

    bool has(const std::string &flag) const { return flags_.count(flag); }

    /**
     * Every value given for a repeatable flag, in the order given
     * (str()/num() see only the last). Empty when the flag is absent.
     */
    std::vector<std::string>
    all(const std::string &flag) const
    {
        auto it = multi_.find(flag);
        return it == multi_.end() ? std::vector<std::string>{}
                                  : it->second;
    }

    std::string
    str(const std::string &flag, const std::string &fallback = "") const
    {
        auto it = flags_.find(flag);
        return it == flags_.end() ? fallback : it->second;
    }

    /** Required string flag; exits with usage if absent. */
    std::string
    required(const std::string &flag) const
    {
        if (!has(flag))
            die("missing required flag: " + flag);
        return flags_.at(flag);
    }

    /**
     * Integer flag read as @p T. Anything but a whole number in
     * [0, @p max] is a usage error; @p max defaults to T's maximum, so
     * a value never wraps on its way into T.
     */
    template <typename T>
    T
    num(const std::string &flag, std::type_identity_t<T> fallback,
        std::type_identity_t<T> max = std::numeric_limits<T>::max()) const
    {
        auto it = flags_.find(flag);
        if (it == flags_.end())
            return fallback;
        const std::string &text = it->second;
        char *end = nullptr;
        errno = 0;
        const long long v = std::strtoll(text.c_str(), &end, 10);
        if (end == text.c_str() || *end != '\0')
            die("flag " + flag + " expects an integer, got '" + text +
                "'");
        if (errno == ERANGE || v < 0 ||
            static_cast<unsigned long long>(v) >
                static_cast<unsigned long long>(max))
            die("flag " + flag + " expects an integer in [0, " +
                std::to_string(max) + "], got '" + text + "'");
        return static_cast<T>(v);
    }

    double
    real(const std::string &flag, double fallback) const
    {
        auto it = flags_.find(flag);
        if (it == flags_.end())
            return fallback;
        char *end = nullptr;
        double v = std::strtod(it->second.c_str(), &end);
        if (end == nullptr || *end != '\0')
            die("flag " + flag + " expects a number, got '" + it->second +
                "'");
        return v;
    }

  private:
    [[noreturn]] void
    die(const std::string &message) const
    {
        std::fprintf(stderr, "error: %s\n\n%s\n", message.c_str(),
                     usage_.c_str());
        std::exit(2);
    }

    std::map<std::string, std::string> flags_;
    std::map<std::string, std::vector<std::string>> multi_;
    std::string usage_;
};

} // namespace tools
} // namespace gpx

#endif // GPX_TOOLS_CLI_HH
