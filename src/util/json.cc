#include "util/json.hh"

#include <cstdio>

namespace gpx {
namespace util {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        const auto byte = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (byte < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", byte);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

} // namespace util
} // namespace gpx
