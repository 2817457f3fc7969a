#include "figure.hh"

#include <fstream>
#include <sstream>

#include "plot/gnuplot.hh"
#include "util/csv.hh"
#include "util/format.hh"
#include "util/logging.hh"

namespace hcm {
namespace plot {

Figure::Figure(std::string id, std::string caption)
    : _id(std::move(id)), _caption(std::move(caption))
{
}

Panel &
Figure::addPanel(std::string title, Axis x, Axis y)
{
    _panels.push_back(Panel{std::move(title), std::move(x), std::move(y),
                            {}});
    return _panels.back();
}

void
Figure::renderAscii(std::ostream &os, ChartOptions opts) const
{
    os << "=== " << _id << ": " << _caption << " ===\n";
    for (const Panel &p : _panels) {
        AsciiChart chart(p.title, p.x, p.y, opts);
        for (const Series &s : p.series)
            chart.add(s);
        os << chart.render() << "\n";
    }
}

void
Figure::writeFiles(const std::string &out_dir) const
{
    ensureDirectory(out_dir);
    std::string path = out_dir + "/" + _id + ".csv";
    std::ofstream file(path);
    CsvWriter csv(file);
    csv.writeRow({"panel", "series", "x", "y", "segment_style"});
    for (const Panel &p : _panels) {
        for (const Series &s : p.series) {
            for (const Point &pt : s.points) {
                const char *style = "solid";
                if (pt.style == LineStyle::Dashed)
                    style = "dashed";
                else if (pt.style == LineStyle::Points)
                    style = "points";
                csv.writeRow({p.title, s.name, fmtSig(pt.x, 12),
                              fmtSig(pt.y, 12), style});
            }
        }
    }
    if (!file.flush())
        hcm_fatal("cannot write '", path, "'");
    for (std::size_t i = 0; i < _panels.size(); ++i) {
        const Panel &p = _panels[i];
        std::ostringstream stem;
        stem << _id << "_panel" << i;
        GnuplotWriter writer(out_dir, stem.str());
        writer.write(p.title, p.x, p.y, p.series);
    }
}

} // namespace plot
} // namespace hcm
