/**
 * @file
 * Chip organizations compared in Section 6's projections: the symmetric
 * and asymmetric(-offload) CMPs plus one heterogeneous (HET) design per
 * U-core device with calibrated parameters for a workload. Line indices
 * follow the paper's figure legends: (0) SymCMP, (1) AsymCMP, (2) LX760,
 * (3) GTX285, (4) GTX480, (5) R5870, (6) ASIC.
 */

#ifndef HCM_CORE_ORGANIZATION_HH
#define HCM_CORE_ORGANIZATION_HH

#include <optional>
#include <string>
#include <vector>

#include "core/calibration.hh"
#include "core/ucore.hh"
#include "devices/device.hh"
#include "workloads/workload.hh"

namespace hcm {
namespace core {

/** Organization archetype. */
enum class OrgKind {
    SymmetricCmp,
    AsymmetricCmp, ///< asymmetric-offload (Section 3.1)
    Heterogeneous,
    DynamicCmp,    ///< Hill-Marty dynamic upper bound (extension)
};

/** One line of a projection figure. */
struct Organization
{
    OrgKind kind = OrgKind::SymmetricCmp;
    std::string name;                      ///< legend label
    int paperIndex = -1;                   ///< figure legend index, -1 = n/a
    std::optional<dev::DeviceId> device;   ///< U-core source device
    UCoreParams ucore;                     ///< valid when Heterogeneous
    /**
     * True when the parallel bandwidth bound is waived — the paper
     * exempts the ASIC MMM core, whose 40nm design blocks at N >= 2048
     * and thus needs negligible off-chip traffic.
     */
    bool bandwidthExempt = false;

    bool isHet() const { return kind == OrgKind::Heterogeneous; }

    /** The device filter: false only for a HET of another device. */
    bool matchesDevice(std::optional<dev::DeviceId> only) const
    {
        return !only || !isHet() || device == only;
    }
};

/** The symmetric CMP line. */
Organization symmetricCmp();

/** The asymmetric-offload CMP line. */
Organization asymmetricCmp();

/** The dynamic-CMP upper bound (not plotted in the paper). */
Organization dynamicCmp();

/**
 * The HET line for @p device on @p w with (mu, phi) derived through
 * @p calib; nullopt when the device has no measurement for w.
 */
std::optional<Organization> heterogeneous(
    dev::DeviceId device, const wl::Workload &w,
    const BceCalibration &calib = BceCalibration::standard());

/**
 * All organizations the paper plots for @p w: both CMPs plus every HET
 * with data, in legend order, with the ASIC-MMM bandwidth exemption
 * applied.
 */
std::vector<Organization> paperOrganizations(
    const wl::Workload &w,
    const BceCalibration &calib = BceCalibration::standard());

} // namespace core
} // namespace hcm

#endif // HCM_CORE_ORGANIZATION_HH
