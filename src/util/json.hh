/**
 * @file
 * JSON string escaping shared by every hand-written JSON emitter
 * (serve STATS, PipelineStats, the scenario wall, bench context
 * blocks), so a user-supplied name can never break a document.
 */

#ifndef GPX_UTIL_JSON_HH
#define GPX_UTIL_JSON_HH

#include <string>

namespace gpx {
namespace util {

/**
 * @p s escaped for use between JSON double quotes: `"` and `\` get a
 * backslash, every control byte below 0x20 becomes `\u00XX`, and all
 * other bytes (UTF-8 included) pass through unchanged.
 */
std::string jsonEscape(const std::string &s);

} // namespace util
} // namespace gpx

#endif // GPX_UTIL_JSON_HH
