/**
 * @file
 * Ablation studies for the software design choices the paper takes as
 * given (Sections 2.1.5 and 4.1/4.2):
 *
 *  1. affine vs mixed projective coordinates -- projective coordinates
 *     exist because inversion is "up to two orders of magnitude more
 *     costly than a field multiplication";
 *  2. double-and-add vs signed sliding window vs Montgomery ladder;
 *  3. operand scanning vs product scanning on each microarchitecture
 *     (the reason the ISA extensions pick product scanning).
 */

#include <functional>

#include "ec/scalar_mult.hh"
#include "workload/asm_kernels.hh"
#include "workload/kernel_model.hh"
#include "workload/op_trace.hh"

#include "bench_util.hh"

using namespace ulecc;
using namespace ulecc::bench;

namespace
{

OpCounts
countOps(const std::function<void()> &fn)
{
    OpRecorder rec;
    OpObserverScope scope(&rec);
    fn();
    return rec.counts;
}

double
peteCycles(const OpCounts &ops, const KernelModel &model)
{
    double cycles = 0;
    for (int d = 0; d < 2; ++d) {
        for (int o = 0; o < 6; ++o) {
            cycles += ops.counts[d][o]
                * model.cost(static_cast<OpDomain>(d),
                             static_cast<FieldOp>(o)).cycles;
        }
    }
    return cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    SweepDriver sweep(argc, argv); // no evaluate() cells; uniform CLI
    (void)sweep;
    const Curve &c = standardCurve(CurveId::P192);
    KernelModel base(MicroArch::Baseline, CurveId::P192);
    MpUint k = MpUint::fromHex("3cb9a01845ba75166b5c215767b1d693"
                               "4e50c3db36e89b12").mod(c.order());

    banner("Ablation A", "Coordinate system (192-bit scalar multiply)");
    OpCounts affine = countOps([&] {
        naiveScalarMul(c, k, c.generator());
    });
    OpCounts mixed = countOps([&] {
        scalarMul(c, k, c.generator());
    });
    Table a({"Coordinates", "Mul", "Sqr", "Add/Sub", "Inv",
             "Baseline cycles"});
    auto row = [&](const char *label, const OpCounts &ops) {
        a.addRow({label,
                  std::to_string(ops.get(OpDomain::CurveField,
                                         FieldOp::Mul)),
                  std::to_string(ops.get(OpDomain::CurveField,
                                         FieldOp::Sqr)),
                  std::to_string(ops.get(OpDomain::CurveField,
                                         FieldOp::Add)
                                 + ops.get(OpDomain::CurveField,
                                           FieldOp::Sub)),
                  std::to_string(ops.get(OpDomain::CurveField,
                                         FieldOp::Inv)),
                  fmt(peteCycles(ops, base) / 1e5, 1) + "e5"});
    };
    row("Affine (1 inv per point op)", affine);
    row("Mixed Jacobian-affine", mixed);
    a.print();
    footnote("projective coordinates trade hundreds of inversions for "
             "a handful -- the Section 2.1.5 rationale");

    banner("Ablation B", "Scalar-multiplication algorithm (B-163)");
    const auto &bc =
        dynamic_cast<const BinaryCurve &>(standardCurve(CurveId::B163));
    MpUint kb = k.mod(bc.order());
    KernelModel bbase(MicroArch::IsaExt, CurveId::B163);
    OpCounts window = countOps([&] {
        scalarMul(bc, kb, bc.generator());
    });
    OpCounts ladder = countOps([&] {
        scalarMulLadder(bc, kb, bc.generator());
    });
    OpCounts dbl_add = countOps([&] {
        naiveScalarMul(bc, kb, bc.generator());
    });
    Table b({"Algorithm", "Mul", "Sqr", "Inv", "Binary-ISA cycles"});
    auto brow = [&](const char *label, const OpCounts &ops) {
        b.addRow({label,
                  std::to_string(ops.get(OpDomain::CurveField,
                                         FieldOp::Mul)),
                  std::to_string(ops.get(OpDomain::CurveField,
                                         FieldOp::Sqr)),
                  std::to_string(ops.get(OpDomain::CurveField,
                                         FieldOp::Inv)),
                  fmt(peteCycles(ops, bbase) / 1e5, 1) + "e5"});
    };
    brow("Affine double-and-add (Alg 1)", dbl_add);
    brow("Signed sliding window (3P,5P)", window);
    brow("Montgomery ladder (LD)", ladder);
    b.print();
    footnote("the paper evaluated the Montgomery ladder for Billie and "
             "found the sliding window preferable given the 16-entry "
             "register file");

    banner("Ablation C",
           "Multiplication algorithm per microarchitecture (k = 6)");
    MpUint x = MpUint::fromHex("deadbeefcafebabe0123456789abcdef"
                               "0011223344556677");
    MpUint y = MpUint::fromHex("fedcba98765432100fedcba987654321"
                               "8899aabbccddeeff");
    KernelRun os = runKernel(AsmKernel::MulOs, x, y, 6);
    KernelRun ps = runKernel(AsmKernel::MulPsMaddu, x, y, 6);
    Table m({"Algorithm", "Cycles", "RAM writes", "Notes"});
    m.addRow({"Operand scanning (Alg 2)", std::to_string(os.cycles),
              std::to_string(os.ramWrites),
              "baseline choice: no accumulator needed"});
    m.addRow({"Product scanning + MADDU/SHA (Alg 3)",
              std::to_string(ps.cycles), std::to_string(ps.ramWrites),
              "ISA-extension choice: fewer adds and stores"});
    m.print();
    footnote("paper Section 4.2.1: operand scanning wins without the "
             "accumulator extensions; product scanning wins with them");
    return 0;
}
