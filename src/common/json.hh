/**
 * @file
 * The one JSON string writer shared by every JSON emitter (stat
 * dumps, the profiler's trace-event file).
 */

#ifndef DESC_COMMON_JSON_HH
#define DESC_COMMON_JSON_HH

#include <ostream>
#include <string>

namespace desc {

/**
 * Write @p s as a quoted JSON string: quotes and backslashes are
 * escaped, newline and tab use their short escapes, and every other
 * control character is written as \uXXXX, so any byte string
 * round-trips through a conforming parser.
 */
void writeJsonString(std::ostream &os, const std::string &s);

} // namespace desc

#endif // DESC_COMMON_JSON_HH
