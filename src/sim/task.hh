/**
 * @file
 * Synthetic programs for the chip simulator: an ordered list of phases,
 * each either serial (one task) or parallel (a bag of independent
 * chunks). Work is measured in BCE-seconds — the time one BCE core
 * would need — so a whole program of total work 1.0 is the analytical
 * model's unit program and simulated time is directly 1/speedup.
 */

#ifndef HCM_SIM_TASK_HH
#define HCM_SIM_TASK_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace hcm {
namespace sim {

/** Phase flavor. */
enum class PhaseKind {
    Serial,
    Parallel,
};

/** One program phase. */
struct Phase
{
    PhaseKind kind = PhaseKind::Serial;
    double work = 0.0;        ///< BCE-seconds in this phase
    std::size_t chunks = 1;   ///< independent chunks (Parallel only)
    /**
     * Optional explicit per-chunk works (must sum to @p work and match
     * @p chunks); empty means equal chunks. Imbalanced bags expose the
     * scheduling effects the analytical model assumes away.
     */
    std::vector<double> chunkWorks;
    std::string label;

    /** The work of chunk @p i (explicit or equal split). */
    double chunkWork(std::size_t i) const;
};

/** A synthetic program. */
class TaskGraph
{
  public:
    explicit TaskGraph(std::vector<Phase> phases);

    /**
     * The analytical model's program shape: (1 - f) serial work followed
     * by f parallel work cut into @p chunks chunks, total work 1.
     */
    static TaskGraph amdahl(double f, std::size_t chunks);

    /**
     * An Amdahl program whose parallel bag is imbalanced: chunk works
     * are drawn geometrically with heavy/light ratio @p skew (skew = 1
     * reduces to equal chunks), deterministically from @p seed.
     */
    static TaskGraph amdahlImbalanced(double f, std::size_t chunks,
                                      double skew,
                                      std::uint64_t seed = 1);

    const std::vector<Phase> &phases() const { return _phases; }

  private:
    std::vector<Phase> _phases;
};

} // namespace sim
} // namespace hcm

#endif // HCM_SIM_TASK_HH
