#include "export.hh"

#include "util/json.hh"

namespace hcm {
namespace report {

using namespace core;

void
exportProjectionJson(std::ostream &out, const wl::Workload &w,
                     const std::vector<double> &fractions,
                     const Scenario &scenario)
{
    JsonWriter json(out);
    json.beginObject();
    json.kv("workload", w.name());
    json.kv("perfUnit", w.perfUnit());
    json.kv("bytesPerOp", w.bytesPerOp());
    json.kv("scenario", scenario.name);
    json.kv("alpha", scenario.alpha);

    json.key("projections").beginArray();
    for (double f : fractions) {
        json.beginObject();
        json.kv("f", f);
        json.key("series").beginArray();
        for (const ProjectionSeries &series : projectAll(w, f, scenario)) {
            json.beginObject();
            json.kv("organization", series.org.name);
            json.kv("paperIndex", series.org.paperIndex);
            if (series.org.isHet()) {
                json.kv("mu", series.org.ucore.mu);
                json.kv("phi", series.org.ucore.phi);
                json.kv("bandwidthExempt", series.org.bandwidthExempt);
            }
            json.key("points").beginArray();
            for (const NodePoint &pt : series.points) {
                json.beginObject();
                json.kv("node", pt.node.label());
                json.kv("year", pt.node.year);
                json.kv("feasible", pt.design.feasible);
                if (pt.design.feasible) {
                    json.kv("speedup", pt.design.speedup);
                    json.kv("r", pt.design.r);
                    json.kv("n", pt.design.n);
                    json.kv("limiter",
                            limiterName(pt.design.limiter));
                    json.kv("energyNormalized", pt.energyNormalized());
                }
                json.key("budget").beginObject();
                json.kv("area", pt.budget.area);
                json.kv("power", pt.budget.power);
                json.kv("bandwidth", pt.budget.bandwidth);
                json.endObject();
                json.endObject();
            }
            json.endArray();
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    out << "\n";
}

} // namespace report
} // namespace hcm
