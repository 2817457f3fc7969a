#include "self_roofline.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>

#include "core/budget.hh"
#include "core/optimizer.hh"
#include "core/organization.hh"
#include "core/projection.hh"
#include "devices/roofline.hh"
#include "itrs/scaling.hh"
#include "plot/ascii_chart.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/table.hh"

namespace hcm {
namespace hwc {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Run @p body repeatedly for at least @p min_seconds between two reads
 * of one counter group, so per-iteration noise averages out and the
 * counter delta covers the whole window the wall clock covers.
 */
RooflinePoint
measureLoop(const std::string &name, double min_seconds,
            const std::function<void()> &body)
{
    RooflinePoint point;
    point.name = name;
    PerfCounterGroup group;
    group.open();
    CounterSample counted = group.read();
    Clock::time_point start = Clock::now();
    double elapsed = 0.0;
    do {
        body();
        ++point.iterations;
        elapsed = std::chrono::duration<double>(Clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);
    const CounterSample d = group.read().deltaSince(counted);
    point.seconds = elapsed;
    point.measured = d.available;
    if (d.available) {
        point.instructions = d.instructions;
        point.cycles = d.cycles;
        point.hasLlc = d.hasLlc;
        point.llcLoads = d.llcLoads;
        point.llcMisses = d.llcMisses;
    }
    return point;
}

} // namespace

bool
SelfRooflineReport::placeable() const
{
    if (machine.peakInsPerSec <= 0.0 ||
        machine.streamBytesPerSec <= 0.0)
        return false;
    return std::any_of(points.begin(), points.end(),
                       [](const RooflinePoint &p) {
                           return p.measured && p.intensity() > 0.0;
                       });
}

SelfRooflineReport
measureSelfRoofline(const SelfRooflineOptions &opts)
{
    SelfRooflineReport report;
    report.counters = counterAvailability();

    report.machine = measureMachineCeilings(opts.probe);

    // Hot loop 1: the optimizer's r-grid sweep — every organization the
    // paper plots, optimized at the 40nm budgets. This is the inner
    // loop of every projection and sweep verb; it now exercises the SoA
    // batch kernel (core::BatchEvaluator) that optimize() routes
    // through, so its arithmetic intensity reflects the shipped path,
    // not the scalar oracle.
    const wl::Workload w = wl::Workload::mmm();
    const auto orgs = core::paperOrganizations(w);
    const core::Budget budget =
        core::makeBudget(itrs::nodeTable().front(), w);
    report.points.push_back(measureLoop(
        "optimize-r-grid", opts.loopMinSeconds, [&] {
            for (const core::Organization &org : orgs)
                core::optimize(org, 0.99, budget);
        }));

    // Hot loop 2: a dense projection slice — all organizations across
    // all Table 6 nodes, the serial reference the sweep engine fans
    // out in parallel.
    report.points.push_back(measureLoop(
        "sweep-slice", opts.loopMinSeconds,
        [&] { core::projectAll(w, 0.999); }));
    return report;
}

void
writeSelfRooflineJson(const SelfRooflineReport &report,
                      std::ostream &out)
{
    JsonWriter json(out);
    json.beginObject();
    json.kv("schema", "hcm-self-roofline/v1");

    json.key("counters").beginObject();
    json.kv("available", report.counters.available);
    if (!report.counters.available)
        json.kv("reason", report.counters.reason);
    json.kv("perf_event_paranoid", report.counters.perfEventParanoid);
    json.endObject();

    json.key("machine").beginObject();
    json.kv("stream_bytes_per_sec", report.machine.streamBytesPerSec);
    json.kv("peak_flops_per_sec", report.machine.peakOpsPerSec);
    if (report.machine.peakInsPerSec > 0.0)
        json.kv("peak_ins_per_sec", report.machine.peakInsPerSec);
    json.kv("stream_bytes",
            static_cast<long long>(report.machine.streamBytes));
    json.kv("stream_seconds", report.machine.streamSeconds);
    json.kv("peak_ops",
            static_cast<long long>(report.machine.peakOps));
    json.kv("peak_seconds", report.machine.peakSeconds);
    json.endObject();

    json.key("points").beginArray();
    for (const RooflinePoint &p : report.points) {
        json.beginObject();
        json.kv("name", p.name);
        json.kv("iterations", static_cast<long long>(p.iterations));
        json.kv("seconds", p.seconds);
        json.kv("measured", p.measured);
        if (p.measured) {
            json.kv("instructions",
                    static_cast<long long>(p.instructions));
            json.kv("cycles", static_cast<long long>(p.cycles));
            json.kv("ipc", p.ipc());
            json.kv("ins_per_sec", p.insPerSec());
            if (p.hasLlc) {
                json.kv("llc_loads",
                        static_cast<long long>(p.llcLoads));
                json.kv("llc_misses",
                        static_cast<long long>(p.llcMisses));
                json.kv("llc_miss_rate", p.llcMissRate());
                json.kv("intensity_ins_per_byte", p.intensity());
            }
        }
        json.endObject();
    }
    json.endArray();

    json.kv("placeable", report.placeable());
    json.endObject();
    out << "\n";
}

std::string
renderSelfRoofline(const SelfRooflineReport &report)
{
    std::string out;
    out += "Measured self-roofline (host ceilings from calibrated "
           "microkernels)\n\n";
    out += "  stream bandwidth : " +
           fmtSig(report.machine.streamBytesPerSec / 1e9, 3) +
           " GB/s (triad, " +
           fmtSig(static_cast<double>(report.machine.streamBytes) /
                      (1u << 20),
                  3) +
           " MiB moved)\n";
    out += "  peak compute     : " +
           fmtSig(report.machine.peakOpsPerSec / 1e9, 3) +
           " Gflops/s (multiply-add chains)\n";
    if (report.machine.peakInsPerSec > 0.0)
        out += "  peak instruction : " +
               fmtSig(report.machine.peakInsPerSec / 1e9, 3) +
               " Gins/s (ceiling for placed points)\n";
    if (report.counters.available) {
        out += "  hardware counters: available\n";
    } else {
        out += "  hardware counters: UNAVAILABLE — " +
               report.counters.reason + "\n";
        out += "  (hot loops timed by wall clock only; no roofline "
               "placement)\n";
    }
    out += "\n";

    TextTable table("Hot loops");
    table.setHeaders({"loop", "iters", "seconds", "Gins/s", "IPC",
                      "LLC miss%", "ins/byte", "% of ceiling"});
    for (const RooflinePoint &p : report.points) {
        std::string gins = p.measured
                               ? fmtSig(p.insPerSec() / 1e9, 3)
                               : "n/a";
        std::string ipc = p.measured ? fmtSig(p.ipc(), 3) : "n/a";
        std::string miss =
            p.hasLlc ? fmtPercent(p.llcMissRate(), 2) : "n/a";
        std::string intensity =
            p.hasLlc && p.intensity() > 0.0 ? fmtSig(p.intensity(), 3)
                                            : "n/a";
        std::string attained = "n/a";
        if (p.measured && report.machine.peakInsPerSec > 0.0 &&
            report.machine.streamBytesPerSec > 0.0 &&
            p.intensity() > 0.0) {
            dev::Roofline roof(
                Perf(report.machine.peakInsPerSec / 1e9),
                Bandwidth(report.machine.streamBytesPerSec / 1e9));
            double attainable =
                roof.attainable(p.intensity()).value();
            if (attainable > 0.0)
                attained = fmtPercent(
                    (p.insPerSec() / 1e9) / attainable, 1);
        }
        table.addRow({p.name, std::to_string(p.iterations),
                      fmtSig(p.seconds, 3), gins, ipc, miss, intensity,
                      attained});
    }
    out += table.render();

    if (!report.placeable())
        return out;

    // Log-log roofline: the measured ceilings in Gins/s vs ins/byte,
    // with each hot loop as a one-point series.
    dev::Roofline roof(Perf(report.machine.peakInsPerSec / 1e9),
                       Bandwidth(report.machine.streamBytesPerSec /
                                 1e9));
    double ridge = roof.ridgeIntensity();
    double lo = ridge / 64.0, hi = ridge * 64.0;
    for (const RooflinePoint &p : report.points) {
        if (!p.measured || p.intensity() <= 0.0)
            continue;
        lo = std::min(lo, p.intensity() / 2.0);
        hi = std::max(hi, p.intensity() * 2.0);
    }

    plot::Axis x{"intensity (instructions/byte)", true, {}};
    plot::Axis y{"Gins/s", true, {}};
    plot::AsciiChart chart("Self-roofline (measured)", x, y);

    plot::Series ceiling("machine ceiling");
    const int kSamples = 64;
    for (int i = 0; i <= kSamples; ++i) {
        double frac = static_cast<double>(i) / kSamples;
        double intensity =
            lo * std::pow(hi / lo, frac);
        ceiling.add(intensity, roof.attainable(intensity).value());
    }
    chart.add(ceiling);

    for (const RooflinePoint &p : report.points) {
        if (!p.measured || p.intensity() <= 0.0)
            continue;
        plot::Series s(p.name, plot::LineStyle::Points);
        s.add(p.intensity(), p.insPerSec() / 1e9);
        chart.add(s);
    }

    out += "\n" + chart.render();
    out += "\nridge at " + fmtSig(ridge, 3) +
           " instructions/byte; points left of the ridge are "
           "bandwidth-bound, right are compute-bound.\n";
    return out;
}

} // namespace hwc
} // namespace hcm
