#include "task.hh"

#include <cmath>

#include "util/logging.hh"
#include "workloads/generator.hh"

namespace hcm {
namespace sim {

double
Phase::chunkWork(std::size_t i) const
{
    hcm_assert(i < chunks, "chunk index out of range");
    if (chunkWorks.empty())
        return work / static_cast<double>(chunks);
    return chunkWorks[i];
}

TaskGraph::TaskGraph(std::vector<Phase> phases)
    : _phases(std::move(phases))
{
    hcm_assert(!_phases.empty(), "program needs at least one phase");
    for (const Phase &p : _phases) {
        hcm_assert(p.work >= 0.0, "negative phase work");
        hcm_assert(p.kind == PhaseKind::Serial || p.chunks >= 1,
                   "parallel phase needs chunks");
        if (!p.chunkWorks.empty()) {
            hcm_assert(p.chunkWorks.size() == p.chunks,
                       "chunkWorks size must match chunks");
            double sum = 0.0;
            for (double w : p.chunkWorks) {
                hcm_assert(w >= 0.0, "negative chunk work");
                sum += w;
            }
            hcm_assert(std::fabs(sum - p.work) < 1e-9 * (1.0 + p.work),
                       "chunkWorks must sum to the phase work");
        }
    }
}

TaskGraph
TaskGraph::amdahl(double f, std::size_t chunks)
{
    hcm_assert(f >= 0.0 && f <= 1.0, "fraction outside [0,1]");
    std::vector<Phase> phases;
    if (f < 1.0)
        phases.push_back({PhaseKind::Serial, 1.0 - f, 1, {}, "serial"});
    if (f > 0.0)
        phases.push_back({PhaseKind::Parallel, f, chunks, {}, "parallel"});
    return TaskGraph(std::move(phases));
}

TaskGraph
TaskGraph::amdahlImbalanced(double f, std::size_t chunks, double skew,
                            std::uint64_t seed)
{
    hcm_assert(f > 0.0 && f <= 1.0, "need parallel work to imbalance");
    hcm_assert(chunks >= 1, "need at least one chunk");
    hcm_assert(skew >= 1.0, "skew below 1 is meaningless");

    // Draw weights log-uniformly in [1, skew] and normalize to f.
    wl::Rng rng(seed);
    std::vector<double> works(chunks);
    double sum = 0.0;
    for (double &w : works) {
        w = std::exp(rng.uniform(0.0, std::log(skew)));
        sum += w;
    }
    for (double &w : works)
        w *= f / sum;

    std::vector<Phase> phases;
    if (f < 1.0)
        phases.push_back({PhaseKind::Serial, 1.0 - f, 1, {}, "serial"});
    Phase par{PhaseKind::Parallel, f, chunks, std::move(works),
              "parallel-imbalanced"};
    phases.push_back(std::move(par));
    return TaskGraph(std::move(phases));
}

} // namespace sim
} // namespace hcm
