#include "scaling.hh"

#include "util/format.hh"
#include "util/logging.hh"

namespace hcm {
namespace itrs {

const std::string &
NodeParams::label() const
{
    static const std::vector<std::string> labels = [] {
        std::vector<std::string> out;
        for (const NodeParams &n : nodeTable())
            out.push_back(fmtSig(n.nodeNm, 3) + "nm");
        return out;
    }();
    const std::vector<NodeParams> &table = nodeTable();
    for (std::size_t i = 0; i < table.size(); ++i)
        if (table[i].nodeNm == nodeNm)
            return labels[i];
    hcm_panic("node ", nodeNm, "nm is not in Table 6");
}

const std::vector<NodeParams> &
nodeTable()
{
    static const std::vector<NodeParams> table = {
        // year, nm, die, power, bandwidth, maxBCE, relPwr, relBW
        {2011, 40.0, Area(432.0), Power(100.0), Bandwidth(180.0), 19.0,
         1.00, 1.0},
        {2013, 32.0, Area(432.0), Power(100.0), Bandwidth(198.0), 37.0,
         0.75, 1.1},
        {2016, 22.0, Area(432.0), Power(100.0), Bandwidth(234.0), 75.0,
         0.50, 1.3},
        {2019, 16.0, Area(432.0), Power(100.0), Bandwidth(234.0), 149.0,
         0.36, 1.3},
        {2022, 11.0, Area(432.0), Power(100.0), Bandwidth(252.0), 298.0,
         0.25, 1.4},
    };
    return table;
}

const NodeParams *
findNode(double node_nm)
{
    for (const NodeParams &n : nodeTable())
        if (n.nodeNm == node_nm)
            return &n;
    return nullptr;
}

const NodeParams &
nodeParams(double node_nm)
{
    if (const NodeParams *n = findNode(node_nm))
        return *n;
    hcm_panic("node ", node_nm, "nm is not in Table 6");
}

std::vector<std::string>
nodeLabels()
{
    std::vector<std::string> out;
    for (const NodeParams &n : nodeTable())
        out.push_back(n.label());
    return out;
}

} // namespace itrs
} // namespace hcm
