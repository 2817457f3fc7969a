/**
 * @file
 * The answer's schema, and the one writer of its bytes. packAnswer()
 * writes a QueryResult straight into a small lossless code, so the
 * cache keeps about a fifth of each answer's bytes and nothing
 * renders the text first; every reader expands the codes. A packed
 * answer is the expanded length as a LEB128 varint, then codes:
 *
 *  - a byte below 0x80 stands for itself;
 *  - 0x80 to 0xDE names one of at most 95 vocabulary strings, which the
 *    schema table in answer_codec.cc lists once: the answer's fixed
 *    fragments in the order they are written (the query echo, each
 *    row's members, an error's dispatch keys), the query type,
 *    workload, scenario, device and error-kind names from their
 *    registries, and each organization, node label and limiter joined
 *    to the members that follow it in a row;
 *  - 0xDF stands for the byte after it, so free text with bytes of 0x80
 *    or above packs too;
 *  - 0xE0 to 0xFF starts a run of 1 to 32 number characters (digits
 *    . - + e E), two to a byte, high nibble first.
 *
 * Free text (an error message, an echoed requestId, a workload or
 * scenario spelled outside the registries) is JSON-escaped exactly as
 * JsonWriter escapes it and written as literals. Numbers are written
 * as JsonWriter prints them: "%.12g" (formatGeneral), null when not
 * finite.
 */

#ifndef HCM_SVC_ANSWER_CODEC_HH
#define HCM_SVC_ANSWER_CODEC_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hcm {
namespace svc {

struct QueryResult;

/** Bytes expandAnswer() may overwrite past the end of its output. */
constexpr std::size_t kAnswerExpandSlack = 32;

/** The vocabulary, in code order: code 0x80 + i names entry i. */
const std::vector<std::string> &answerVocabulary();

/** Append @p result's answer, packed, to @p out. */
void packAnswer(const QueryResult &result, std::string &out);

/** Length of the text @p packed expands to; 0 for an empty string. */
std::size_t expandedSize(std::string_view packed);

/**
 * Write the text @p packed expands to at @p dst and return its end.
 * @p dst needs room for expandedSize() bytes plus kAnswerExpandSlack,
 * which may be overwritten with scratch.
 */
char *expandAnswer(std::string_view packed, char *dst);

/** Append the text @p packed expands to to @p out. */
void appendExpanded(std::string_view packed, std::string &out);

} // namespace svc
} // namespace hcm

#endif // HCM_SVC_ANSWER_CODEC_HH
