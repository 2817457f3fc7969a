/**
 * @file
 * A small lossless codec for rendered answers, so the cache keeps
 * about a quarter of each answer's bytes. A packed answer is one mode
 * byte, the expanded length as a LEB128 varint, then a body:
 *
 *  - raw mode: the bytes themselves;
 *  - packed mode: codes. A byte below 0x80 stands for itself. 0x80 to
 *    0xDF names one of at most 96 vocabulary strings: the member names
 *    and punctuation QueryResult::writeJson() emits, and the query
 *    type, workload, scenario, organization, node, limiter and device
 *    names from their registries, a row's names also joined to the
 *    members that follow them. 0xE0 to 0xFF starts a run of 1 to 32
 *    number characters (digits . - + e E), two to a byte, high nibble
 *    first.
 *
 * Every code expands to exactly the bytes it was packed from, so the
 * round trip is the identity. Text holding a byte of 0x80 or above
 * (which the codes could not tell from a code), or that packing would
 * not shrink, is stored raw.
 */

#ifndef HCM_SVC_ANSWER_CODEC_HH
#define HCM_SVC_ANSWER_CODEC_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace hcm {
namespace svc {

/** Bytes expandAnswer() may overwrite past the end of its output. */
constexpr std::size_t kAnswerExpandSlack = 32;

/** The vocabulary, in code order: code 0x80 + i names entry i. */
const std::vector<std::string> &answerVocabulary();

/** Append @p text, packed, to @p out. */
void packAnswer(std::string_view text, std::string &out);

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
