/**
 * @file
 * bench_multspace: the multiplier micro-architecture design space.
 *
 * The paper sweeps curve x architecture against ONE frozen Hi/Lo
 * multiplier (the 4-cycle Karatsuba unit).  This experiment extends
 * the sweep along the dimension the paper never explored: every
 * MultiplierVariant (sim/multiplier.hh) x curve x architecture,
 * through the same parallel SweepRunner as the fig7 suite, reporting
 * the energy-delay frontier.  The karatsuba rows reproduce the
 * default design points bit-identically (descriptor scale 1.0).
 *
 * Alongside the human tables (and the standard ulecc.bench.v1
 * journal), one `ulecc.multspace.v1` JSON record per design point is
 * appended to the file named by $ULECC_MULTSPACE_METRICS -- emitted
 * in registration order from the reassembled sweep results, so the
 * file is byte-identical serial vs parallel (check.sh pins this).
 */

#include <fstream>

#include "bench_util.hh"

using namespace ulecc;
using namespace ulecc::bench;

namespace
{

constexpr MultiplierVariant kVariants[] = {
    MultiplierVariant::Karatsuba,
    MultiplierVariant::Schoolbook,
    MultiplierVariant::Karatsuba2,
    MultiplierVariant::ClmulWide,
};

/** One evaluated design point of the extended space. */
struct Point
{
    MultiplierVariant variant;
    MicroArch arch;
    CurveId curve;
    EvalResult r;
    bool frontier = false;

    double uj() const { return r.totalUj(); }
    double ms() const { return r.timeMs(); }
    double edp() const { return uj() * ms(); }
};

EvalOptions
optionsFor(MultiplierVariant v)
{
    EvalOptions opt;
    opt.kernel.multiplier = v;
    return opt;
}

/** Marks the Pareto-optimal (energy, delay) points of one curve. */
void
markFrontier(std::vector<Point> &pts)
{
    for (Point &p : pts) {
        bool dominated = false;
        for (const Point &q : pts) {
            if (&p == &q || q.curve != p.curve)
                continue;
            bool no_worse = q.uj() <= p.uj() && q.ms() <= p.ms();
            bool better = q.uj() < p.uj() || q.ms() < p.ms();
            if (no_worse && better) {
                dominated = true;
                break;
            }
        }
        p.frontier = !dominated;
    }
}

void
printCurveTable(const std::vector<Point> &pts, CurveId curve)
{
    Table t({"Config (" + curveIdName(curve) + ")", "Multiplier",
             "Time ms", "Total uJ", "EDP uJ*ms", "Frontier"});
    for (const Point &p : pts) {
        if (p.curve != curve)
            continue;
        t.addRow({microArchName(p.arch),
                  multiplierVariantName(p.variant), fmt(p.ms(), 3),
                  fmt(p.uj(), 2), fmt(p.edp(), 3),
                  p.frontier ? "*" : ""});
    }
    t.print();
}

void
printFamilyTable()
{
    Table t({"Multiplier", "MULT cy", "MAC cy", "GF2 cy", "Int blocks",
             "CL blocks", "mW scale", "Area kGE"});
    for (MultiplierVariant v : kVariants) {
        const MultiplierDesc &d = multiplierDesc(v);
        t.addRow({d.name, std::to_string(d.multLatency),
                  std::to_string(d.macLatency),
                  std::to_string(d.gf2Latency),
                  std::to_string(d.halfMultiplies),
                  std::to_string(d.clmulBlocks), fmt(d.multMwScale, 2),
                  fmt(d.areaKge, 1)});
    }
    t.print();
}

/** Lowest-EDP variant for one (curve, arch) cell; "-" if unswept. */
std::string
bestVariant(const std::vector<Point> &pts, CurveId curve, MicroArch arch)
{
    const Point *best = nullptr;
    for (const Point &p : pts) {
        if (p.curve != curve || p.arch != arch)
            continue;
        if (!best || p.edp() < best->edp())
            best = &p;
    }
    return best ? multiplierVariantName(best->variant) : "-";
}

void
printBestTable(const std::vector<Point> &pts,
               const std::vector<CurveId> &curves)
{
    std::vector<std::string> headers = {"Best by EDP"};
    for (CurveId c : curves)
        headers.push_back(curveIdName(c));
    Table t(headers);
    for (MicroArch a : {MicroArch::Baseline, MicroArch::IsaExt,
                        MicroArch::IsaExtIcache, MicroArch::Monte,
                        MicroArch::Billie}) {
        std::vector<std::string> row = {microArchName(a)};
        for (CurveId c : curves)
            row.push_back(bestVariant(pts, c, a));
        t.addRow(row);
    }
    t.print();
}

void
writeJournal(std::ofstream &out, const std::vector<Point> &pts)
{
    if (!out.is_open())
        return;
    for (const Point &p : pts) {
        const MultiplierDesc &d = multiplierDesc(p.variant);
        Json rec = Json::object();
        rec["schema"] = "ulecc.multspace.v1";
        rec["multiplier"] = d.name;
        rec["curve"] = curveIdName(p.curve);
        rec["arch"] = microArchName(p.arch);
        rec["mult_latency"] = static_cast<uint64_t>(d.multLatency);
        rec["mac_latency"] = static_cast<uint64_t>(d.macLatency);
        rec["gf2_latency"] = static_cast<uint64_t>(d.gf2Latency);
        rec["mult_mw_scale"] = d.multMwScale;
        rec["area_kge"] = d.areaKge;
        rec["cycles"] = p.r.totalCycles();
        rec["time_ms"] = p.ms();
        rec["total_uj"] = p.uj();
        rec["edp"] = p.edp();
        rec["frontier"] = p.frontier;
        out << rec.dump() << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<CurveId> primes = {CurveId::P192, CurveId::P256,
                                         CurveId::P384};
    const std::vector<CurveId> binaries = {CurveId::B163,
                                           CurveId::B283};
    const std::initializer_list<MicroArch> prime_archs = {
        MicroArch::Baseline, MicroArch::IsaExt, MicroArch::IsaExtIcache,
        MicroArch::Monte};
    const std::initializer_list<MicroArch> binary_archs = {
        MicroArch::Baseline, MicroArch::IsaExt, MicroArch::IsaExtIcache,
        MicroArch::Billie};

    SweepDriver sweep(argc, argv);
    std::ofstream journal =
        openJournal(toolName(argv[0]), "ULECC_MULTSPACE_METRICS");
    for (MultiplierVariant v : kVariants) {
        sweep.addGrid(prime_archs, primes, optionsFor(v));
        sweep.addGrid(binary_archs, binaries, optionsFor(v));
    }

    banner("multspace",
           "Multiplier family x curve x arch: energy-delay frontier");
    printFamilyTable();

    // Collect in registration order (deterministic either sweep mode).
    std::vector<Point> pts;
    for (MultiplierVariant v : kVariants) {
        for (CurveId c : primes) {
            for (MicroArch a : prime_archs)
                pts.push_back({v, a, c, sweep.eval(a, c, optionsFor(v))});
        }
        for (CurveId c : binaries) {
            for (MicroArch a : binary_archs)
                pts.push_back({v, a, c, sweep.eval(a, c, optionsFor(v))});
        }
    }
    markFrontier(pts);

    for (CurveId c : primes)
        printCurveTable(pts, c);
    for (CurveId c : binaries)
        printCurveTable(pts, c);

    std::vector<CurveId> all = primes;
    all.insert(all.end(), binaries.begin(), binaries.end());
    printBestTable(pts, all);

    int on_frontier = 0, flipped = 0, cells = 0;
    for (const Point &p : pts)
        on_frontier += p.frontier ? 1 : 0;
    for (CurveId c : all) {
        for (MicroArch a : {MicroArch::Baseline, MicroArch::IsaExt,
                            MicroArch::IsaExtIcache, MicroArch::Monte,
                            MicroArch::Billie}) {
            std::string best = bestVariant(pts, c, a);
            if (best == "-")
                continue;
            ++cells;
            flipped += best != "karatsuba" ? 1 : 0;
        }
    }
    footnote(std::to_string(on_frontier)
             + " of " + std::to_string(pts.size())
             + " design points sit on their curve's energy-delay "
               "frontier; a non-default multiplier wins "
             + std::to_string(flipped) + " of " + std::to_string(cells)
             + " (curve, arch) cells on EDP -- the axis the paper "
               "froze shifts the per-cell optimum");
    writeJournal(journal, pts);
    return 0;
}
