#include "export.hh"

#include "core/bounds.hh"
#include "util/csv.hh"
#include "util/json.hh"

namespace hcm {
namespace sweep {

void
writeSweepCsv(std::ostream &out, const SweepResult &result)
{
    CsvWriter csv(out);
    csv.writeRow({"workload", "f", "scenario", "organization",
                  "paperIndex", "node", "year", "feasible", "r", "n",
                  "speedup", "limiter", "energyNormalized", "budgetArea",
                  "budgetPower", "budgetBandwidth"});
    for (const SweepRow &row : result.rows) {
        for (const SweepCell &cell : row.cells) {
            csv.cell(row.workload)
                .cell(row.f)
                .cell(row.scenario)
                .cell(row.organization)
                .cell(row.paperIndex)
                .cell(cell.node.label())
                .cell(cell.node.year)
                .cell(cell.design.feasible ? "1" : "0");
            if (cell.design.feasible) {
                csv.cell(cell.design.r)
                    .cell(cell.design.n)
                    .cell(cell.design.speedup)
                    .cell(core::limiterName(cell.design.limiter))
                    .cell(cell.energyNormalized);
            } else {
                for (int i = 0; i < 5; ++i)
                    csv.cell("");
            }
            csv.cell(cell.budget.area)
                .cell(cell.budget.power)
                .cell(cell.budget.bandwidth)
                .endRow();
        }
    }
}

void
writeSweepJson(std::ostream &out, const SweepResult &result)
{
    JsonWriter json(out);
    json.beginObject();
    json.key("rows").beginArray();
    for (const SweepRow &row : result.rows) {
        json.beginObject();
        json.kv("workload", row.workload);
        json.kv("f", row.f);
        json.kv("scenario", row.scenario);
        json.kv("organization", row.organization);
        json.kv("paperIndex", row.paperIndex);
        json.key("points").beginArray();
        for (const SweepCell &cell : row.cells) {
            json.beginObject();
            json.kv("node", cell.node.label());
            json.kv("year", cell.node.year);
            json.kv("feasible", cell.design.feasible);
            if (cell.design.feasible) {
                json.kv("r", cell.design.r);
                json.kv("n", cell.design.n);
                json.kv("speedup", cell.design.speedup);
                json.kv("limiter",
                        core::limiterName(cell.design.limiter));
                json.kv("energyNormalized", cell.energyNormalized);
            }
            json.key("budget").beginObject();
            json.kv("area", cell.budget.area);
            json.kv("power", cell.budget.power);
            json.kv("bandwidth", cell.budget.bandwidth);
            json.endObject();
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.kv("units", result.units);
    json.kv("jobs", result.jobs);
    json.endObject();
    out << "\n";
}

} // namespace sweep
} // namespace hcm
