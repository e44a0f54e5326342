/**
 * @file
 * Per-phase, per-component energy provenance.
 *
 * PowerModel::evaluate collapses a run into one EnergyBreakdown; the
 * ledger keeps the provenance instead: each protocol phase (sign,
 * verify, a kernel window, a whole run) contributes a row per hardware
 * component -- Pete core, multiplier array, ROM, RAM, uncore, Monte,
 * Billie -- with the multiplier share split out of the Pete figure
 * using the model's own coefficients.  Ledger totals are exactly the
 * PowerModel totals; the decomposition adds information, never skew.
 */

#ifndef ULECC_OBS_ENERGY_LEDGER_HH
#define ULECC_OBS_ENERGY_LEDGER_HH

#include <string>
#include <vector>

#include "core/json.hh"
#include "energy/power_model.hh"

namespace ulecc
{

/** The ledger. */
class EnergyLedger
{
  public:
    explicit EnergyLedger(const PowerModel &model = PowerModel{})
        : model_(model)
    {}

    /** Adds one phase's activity (phases may repeat; counts add). */
    void addPhase(const std::string &phase, const EventCounts &events);

    double totalUj() const;

    /** {"phases": [{phase, total_uj, static_uj, components: {...}}]} */
    Json toJson() const;

  private:
    struct Phase
    {
        std::string name;
        EventCounts events;
    };

    PowerModel model_;
    std::vector<Phase> phases_;
};

} // namespace ulecc

#endif // ULECC_OBS_ENERGY_LEDGER_HH
