/**
 * @file
 * The answer's JSON written field by field through JsonWriter: the
 * reference the packed writer (svc/answer_codec) is checked against
 * byte for byte. The product only packs answers, so this writer lives
 * with the tests.
 */

#ifndef HCM_TESTS_ORACLE_ANSWER_JSON_HH
#define HCM_TESTS_ORACLE_ANSWER_JSON_HH

#include <string>

#include "svc/query.hh"
#include "util/json.hh"

namespace hcm {

/**
 * Emit {"query": {...}, "rows": [...]} on success, or the error object
 * {"error": ..., "type": ..., ["retryAfterMs": ...,] ["requestId": ...,]
 * "query": {...}} via the writer.
 */
void writeAnswerJson(const svc::QueryResult &result, JsonWriter &json);

/** writeAnswerJson() as one compact JSON document. */
std::string answerJson(const svc::QueryResult &result);

} // namespace hcm

#endif // HCM_TESTS_ORACLE_ANSWER_JSON_HH
