/** @file Validates the Section 3.2 compulsory-bandwidth assumption by
 *  measurement: replay each kernel's address trace through set-
 *  associative caches of varying capacity and compare the off-chip
 *  traffic against the compulsory bytes of the paper's footnotes — the
 *  trace-driven version of Figure 4's GTX285 bandwidth study. */

#include <cmath>
#include <iostream>

#include "devices/bandwidth_model.hh"
#include "mem/traffic.hh"
#include "util/format.hh"
#include "util/table.hh"

namespace {

using namespace hcm;

mem::CacheConfig
cacheOf(std::size_t kib)
{
    mem::CacheConfig c;
    c.sizeBytes = kib * 1024;
    c.lineBytes = 64;
    c.ways = 8;
    return c;
}

void
fftSweep()
{
    TextTable t("FFT off-chip traffic multiplier (measured / "
                "compulsory) vs on-chip capacity");
    t.setHeaders({"N", "working set", "16 KiB", "64 KiB", "256 KiB",
                  "1 MiB", "analytic model (GTX285 capacity)"});
    dev::FftBandwidthModel analytic(dev::DeviceId::Gtx285);
    for (std::size_t n : {256u, 1024u, 4096u, 16384u, 65536u}) {
        auto w = wl::Workload::fft(n);
        std::vector<std::string> row = {
            std::to_string(n),
            fmtSig(mem::workingSetBytes(w) / 1024.0, 3) + " KiB"};
        for (std::size_t kib : {16u, 64u, 256u, 1024u}) {
            mem::TrafficResult r = mem::measureTraffic(w, cacheOf(kib));
            row.push_back(fmtSig(r.multiplier(), 3) + "x");
        }
        row.push_back(fmtSig(analytic.trafficMultiplier(n), 3) + "x");
        t.addRow(row);
    }
    std::cout << t << "\n";
}

void
kernelCharacter()
{
    TextTable t("Kernel traffic character at a 64 KiB on-chip memory");
    t.setHeaders({"Workload", "accesses", "miss rate", "traffic",
                  "compulsory", "multiplier"});
    for (const wl::Workload &w :
         {wl::Workload::fft(1024), wl::Workload::fft(16384),
          wl::Workload::mmm(32), wl::Workload::mmm(64),
          wl::Workload::blackScholes()}) {
        mem::TrafficResult r = mem::measureTraffic(w, cacheOf(64));
        t.addRow({w.name(), fmtSig(double(r.stats.accesses()), 3),
                  fmtPercent(r.stats.missRate(), 2),
                  fmtSig(double(r.trafficBytes) / 1024.0, 3) + " KiB",
                  fmtSig(r.compulsoryBytes / 1024.0, 3) + " KiB",
                  fmtSig(r.multiplier(), 3) + "x"});
    }
    std::cout << t;
    std::cout << "\nReading: while the working set fits, measured "
                 "traffic sits at ~1x compulsory —\nthe Section 3.2 "
                 "assumption the projection model rests on. Once "
                 "spilled, the\nstraightforward pass-per-stage FFT pays "
                 "~1.5x traffic per pass (21x at N=2^14),\nwhile the "
                 "analytic GTX285 model shows only ~2x: tuned libraries "
                 "restructure\ninto out-of-core four-step FFTs, which "
                 "is exactly why the paper measured\nnear-compulsory "
                 "bandwidth on real hardware (Figure 4). MMM's blocking "
                 "and BS's\npure streaming behave as the footnotes "
                 "assume.\n";
}

} // namespace

int
main()
{
    fftSweep();
    kernelCharacter();
    return 0;
}
