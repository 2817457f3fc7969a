/**
 * @file
 * ITRS 2009 long-term projections used by the paper (Figure 5): package
 * pin count, supply voltage Vdd, gate capacitance, and the combined
 * power reduction per transistor, all normalized to 2011. The series are
 * reconstructed so that Vdd^2 * Cgate equals the paper's published
 * combined power-reduction factors {1, 0.75, 0.5, 0.36, 0.25} at the
 * Table 6 node years, and pin counts track the paper's relative
 * bandwidth column (< 1.5x growth over fifteen years).
 */

#ifndef HCM_ITRS_ROADMAP_HH
#define HCM_ITRS_ROADMAP_HH

#include <vector>

namespace hcm {
namespace itrs {

/** One year of Figure 5's normalized projections. */
struct RoadmapYear
{
    int year;
    double pins;           ///< package pins, normalized to 2011
    double vdd;            ///< supply voltage, normalized to 2011
    double gateCap;        ///< gate capacitance, normalized to 2011
    double combinedPower;  ///< power per transistor, normalized to 2011

    /** Vdd^2 * C — the dynamic-energy identity the series satisfy. */
    double impliedPower() const { return vdd * vdd * gateCap; }
};

/** The roadmap from 2011 through 2024, one entry per year. */
class Roadmap
{
  public:
    static const Roadmap &instance();

    const std::vector<RoadmapYear> &years() const { return _years; }

    int firstYear() const { return _years.front().year; }
    int lastYear() const { return _years.back().year; }

  private:
    Roadmap();

    std::vector<RoadmapYear> _years;
};

} // namespace itrs
} // namespace hcm

#endif // HCM_ITRS_ROADMAP_HH
