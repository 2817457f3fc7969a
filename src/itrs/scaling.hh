/**
 * @file
 * Technology-scaling parameters (Table 6): for each node from 40nm (2011)
 * to 11nm (2022), the core die and power budgets, projected off-chip
 * bandwidth, the maximum chip area in BCE units, and the relative power
 * per transistor. The constant budgets encode the paper's assumptions:
 * a 576 mm^2 die (Power7-class) with 25% reserved for non-compute
 * components, a 100 W core+cache power budget, and no clock scaling
 * after 40nm.
 */

#ifndef HCM_ITRS_SCALING_HH
#define HCM_ITRS_SCALING_HH

#include <string>
#include <vector>

#include "util/units.hh"

namespace hcm {
namespace itrs {

/** One column of Table 6. */
struct NodeParams
{
    int year;                ///< 2011 .. 2022
    double nodeNm;           ///< 40 .. 11
    Area coreDieBudget;      ///< 432 mm^2 (576 less 25% non-compute)
    Power corePowerBudget;   ///< 100 W
    Bandwidth offchipBw;     ///< 180 GB/s scaled by relBandwidth
    double maxAreaBce;       ///< chip area in BCE units (19 .. 298)
    double relPowerPerTransistor; ///< vs 40nm (1 .. 0.25)
    double relBandwidth;     ///< vs 40nm (1 .. 1.4)

    /**
     * Display label ("40nm"): fmtSig(nodeNm, 3) + "nm", formatted once
     * per Table 6 node (answers print one per row). Panics when
     * nodeNm is not a Table 6 node.
     */
    const std::string &label() const;
};

/** The five Table 6 nodes in order: 40, 32, 22, 16, 11 nm. */
const std::vector<NodeParams> &nodeTable();

/** Node parameters for @p node_nm; nullptr when not a Table 6 node. */
const NodeParams *findNode(double node_nm);

/** Node parameters for @p node_nm; panics when not a Table 6 node. */
const NodeParams &nodeParams(double node_nm);

/** Node labels in order, for figure x axes. */
std::vector<std::string> nodeLabels();

/** Baseline off-chip bandwidth at 40nm (GB/s). */
constexpr double kBaseBandwidthGBs = 180.0;

} // namespace itrs
} // namespace hcm

#endif // HCM_ITRS_SCALING_HH
