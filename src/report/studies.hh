/**
 * @file
 * The extension studies: ten reports that go beyond the paper's own
 * tables and figures (ablations, validations against the simulator and
 * the cache model, Hill & Marty's base curves, rooflines, crossovers,
 * budget elasticities, Pareto frontiers, mixed fabrics). `hcm study
 * <name>` prints one, and tests/golden/studies pins its bytes.
 */

#ifndef HCM_REPORT_STUDIES_HH
#define HCM_REPORT_STUDIES_HH

#include <ostream>
#include <string>
#include <vector>

namespace hcm {
namespace report {

/** The study names `hcm study` takes, in alphabetical order. */
const std::vector<std::string> &studyNames();

/** Print study @p name to @p os; false for no such study. */
bool writeStudy(std::ostream &os, const std::string &name);

} // namespace report
} // namespace hcm

#endif // HCM_REPORT_STUDIES_HH
