/**
 * @file
 * EnergyLedger implementation.
 */

#include "obs/energy_ledger.hh"

namespace ulecc
{

namespace
{

/**
 * Multiplier-array dynamic energy inside EnergyBreakdown::peteUj,
 * recomputed from the model's own coefficients:
 * peteMultMw * (multActiveCycles / cycles) * t_us * 1e-3.
 */
double
multiplierUj(const PowerParams &p, const EventCounts &ev)
{
    return p.peteMultMw * ev.multActiveCycles * p.clockNs * 1e-6;
}

} // namespace

void
EnergyLedger::addPhase(const std::string &phase,
                       const EventCounts &events)
{
    for (Phase &p : phases_) {
        if (p.name == phase) {
            p.events += events;
            return;
        }
    }
    phases_.push_back(Phase{phase, events});
}

double
EnergyLedger::totalUj() const
{
    double total = 0;
    for (const Phase &p : phases_)
        total += model_.evaluate(p.events).totalUj();
    return total;
}

Json
EnergyLedger::toJson() const
{
    Json doc = Json::object();
    Json arr = Json::array();
    for (const Phase &p : phases_) {
        EnergyBreakdown e = model_.evaluate(p.events);
        double mult = multiplierUj(model_.params(), p.events);
        Json rec = Json::object();
        rec["phase"] = p.name;
        rec["cycles"] = p.events.cycles;
        rec["total_uj"] = e.totalUj();
        rec["static_uj"] = e.staticUj;
        Json comps = Json::object();
        comps["pete-core"] = e.peteUj - mult;
        comps["multiplier"] = mult;
        comps["ram"] = e.ramUj;
        comps["rom"] = e.romUj;
        comps["uncore"] = e.uncoreUj;
        comps["monte"] = e.monteUj;
        comps["billie"] = e.billieUj;
        rec["components"] = std::move(comps);
        arr.push(std::move(rec));
    }
    doc["phases"] = std::move(arr);
    doc["total_uj"] = totalUj();
    return doc;
}

} // namespace ulecc
