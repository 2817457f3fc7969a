/**
 * @file
 * A Figure groups panels (each a titled chart with series) and renders them
 * through every backend at once: ASCII to a stream, CSV + gnuplot to an
 * output directory. The projection figures in the paper are 2x2 panels
 * (one per parallel fraction f); this type models that directly.
 */

#ifndef HCM_PLOT_FIGURE_HH
#define HCM_PLOT_FIGURE_HH

#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "plot/ascii_chart.hh"
#include "plot/series.hh"

namespace hcm {
namespace plot {

/** One chart within a figure. */
struct Panel
{
    std::string title;
    Axis x;
    Axis y;
    std::vector<Series> series;
};

/** A paper figure: id (e.g. "fig6"), caption, and one or more panels. */
class Figure
{
  public:
    Figure(std::string id, std::string caption);

    /**
     * Append a panel; returns a reference for series population. Panels
     * live in a deque, so references stay valid across later addPanel
     * calls (several figures populate two panels in one pass).
     */
    Panel &addPanel(std::string title, Axis x, Axis y);

    const std::string &id() const { return _id; }
    const std::deque<Panel> &panels() const { return _panels; }

    /** Render all panels as ASCII charts to @p os. */
    void renderAscii(std::ostream &os, ChartOptions opts = {}) const;

    /**
     * Write one CSV per figure (long format: panel, series, x, y) and a
     * gnuplot .dat/.gp pair per panel under @p out_dir.
     */
    void writeFiles(const std::string &out_dir) const;

  private:
    std::string _id;
    std::string _caption;
    std::deque<Panel> _panels;
};

} // namespace plot
} // namespace hcm

#endif // HCM_PLOT_FIGURE_HH
