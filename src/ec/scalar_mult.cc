/**
 * @file
 * Scalar multiplication implementations.
 */

#include "ec/scalar_mult.hh"

#include <cassert>

#include "mpint/op_observer.hh"

namespace ulecc
{

std::vector<int>
recodeNaf(const MpUint &k)
{
    std::vector<int> digits;
    MpUint v = k;
    while (!v.isZero()) {
        int d = 0;
        if (v.isOdd()) {
            uint32_t mod4 = v.bits(0, 2);
            d = (mod4 == 1) ? 1 : -1; // centered residue mod 4
            if (d > 0)
                v = v.sub(MpUint(1));
            else
                v = v.add(MpUint(1));
        }
        digits.push_back(d);
        v = v.shiftRight(1);
    }
    return digits;
}

std::vector<int>
recodeSigned135(const MpUint &k)
{
    // Windowed signed recoding restricted to the digit set
    // {+-1, +-3, +-5} so only 3P and 5P need precomputing (paper
    // Section 4.1).  At each odd position, prefer the centered residue
    // mod 16 when it lands in the digit set, otherwise fall back to the
    // centered residue mod 8 (always in {+-1, +-3}).
    std::vector<int> digits;
    MpUint v = k;
    auto centered = [](uint32_t r, uint32_t modulus) -> int {
        return (r >= modulus / 2) ? static_cast<int>(r)
                                        - static_cast<int>(modulus)
                                  : static_cast<int>(r);
    };
    while (!v.isZero()) {
        int d = 0;
        if (v.isOdd()) {
            int r16 = centered(v.bits(0, 4), 16);
            int r8 = centered(v.bits(0, 3), 8);
            d = (r16 == 5 || r16 == -5) ? r16 : r8;
            if (d > 0)
                v = v.sub(MpUint(static_cast<uint32_t>(d)));
            else
                v = v.add(MpUint(static_cast<uint32_t>(-d)));
        }
        digits.push_back(d);
        v = v.shiftRight(1);
    }
    return digits;
}

AffinePoint
scalarMul(const Curve &curve, const MpUint &k, const AffinePoint &p)
{
    TraceScope span("ec.scalar_mul", "kernel");
    if (k.isZero() || p.infinity)
        return AffinePoint::makeInfinity();

    // Precompute 3P and 5P in affine form, sharing one inversion via
    // Montgomery's simultaneous-inversion trick.
    const AffineElem pe = curve.toElem(p);
    ProjPoint p2 = curve.doubleProj(curve.toProj(pe));
    ProjPoint p3proj = curve.addMixed(p2, pe);
    ProjPoint p4 = curve.doubleProj(p2);
    ProjPoint p5proj = curve.addMixed(p4, pe);
    std::vector<AffineElem> table = curve.toAffineBatch({p3proj, p5proj});
    const AffineElem &p3 = table[0];
    const AffineElem &p5 = table[1];

    std::vector<int> digits = recodeSigned135(k);
    ProjPoint acc = curve.toProj(AffineElem());
    for (int i = static_cast<int>(digits.size()) - 1; i >= 0; --i) {
        acc = curve.doubleProj(acc);
        int d = digits[i];
        if (d == 0)
            continue;
        const AffineElem &base = (d == 1 || d == -1) ? pe
            : (d == 3 || d == -3) ? p3 : p5;
        acc = curve.addMixed(acc, d > 0 ? base : curve.negate(base));
    }
    return curve.toAffine(acc);
}

AffinePoint
twinScalarMul(const Curve &curve, const MpUint &u1, const AffinePoint &p,
              const MpUint &u2, const AffinePoint &q)
{
    TraceScope span("ec.twin_scalar_mul", "kernel");
    if (u1.isZero() && u2.isZero())
        return AffinePoint::makeInfinity();

    // Precompute P+Q and P-Q (affine), sharing one inversion.
    const AffineElem pe = curve.toElem(p);
    const AffineElem qe = curve.toElem(q);
    std::vector<AffineElem> table = curve.toAffineBatch(
        {curve.addMixed(curve.toProj(pe), qe),
         curve.addMixed(curve.toProj(pe), curve.negate(qe))});
    const AffineElem &pq = table[0];
    const AffineElem &pmq = table[1];

    std::vector<int> n1 = recodeNaf(u1);
    std::vector<int> n2 = recodeNaf(u2);
    int len = static_cast<int>(std::max(n1.size(), n2.size()));
    ProjPoint acc = curve.toProj(AffineElem());
    for (int i = len - 1; i >= 0; --i) {
        acc = curve.doubleProj(acc);
        int d1 = (i < static_cast<int>(n1.size())) ? n1[i] : 0;
        int d2 = (i < static_cast<int>(n2.size())) ? n2[i] : 0;
        if (d1 == 0 && d2 == 0)
            continue;
        const int d = d1 != 0 ? d1 : d2;
        const AffineElem &base = d1 == 0 ? qe
            : d2 == 0                     ? pe
            : d1 == d2                    ? pq
                                          : pmq;
        acc = curve.addMixed(acc, d > 0 ? base : curve.negate(base));
    }
    return curve.toAffine(acc);
}

AffinePoint
scalarMulLadder(const BinaryCurve &curve, const MpUint &k,
                const AffinePoint &p)
{
    TraceScope span("ec.scalar_mul_ladder", "kernel");
    if (k.isZero() || p.infinity)
        return AffinePoint::makeInfinity();
    if (p.x.isZero()) {
        // x = 0 breaks the x-only ladder (order-2 point); the generic
        // path is correct and such points never occur in ECDSA.
        return scalarMul(curve, k, p);
    }
    if (k == MpUint(1))
        return p;

    const BinaryField &f = curve.field();
    const MpUint &x = p.x;
    const MpUint &y = p.y;

    // Initialise: (X1,Z1) = P, (X2,Z2) = 2P.
    MpUint x1 = x, z1(1);
    MpUint z2 = f.sqr(x);
    MpUint x2 = f.add(f.sqr(z2), curve.b());

    auto madd = [&](const MpUint &xa, const MpUint &za, const MpUint &xb,
                    const MpUint &zb, MpUint &xo, MpUint &zo) {
        // (Xo,Zo) = (Xa,Za) + (Xb,Zb), difference P = (x, y).
        MpUint t1 = f.mul(xa, zb);
        MpUint t2 = f.mul(xb, za);
        zo = f.sqr(f.add(t1, t2));
        xo = f.add(f.mul(x, zo), f.mul(t1, t2));
    };
    auto mdouble = [&](MpUint &xd, MpUint &zd) {
        // (Xd,Zd) = 2 (Xd,Zd):  X' = X^4 + b Z^4,  Z' = X^2 Z^2.
        MpUint xx = f.sqr(xd);
        MpUint zz = f.sqr(zd);
        zd = f.mul(xx, zz);
        xd = f.add(f.sqr(xx), f.mul(curve.b(), f.sqr(zz)));
    };

    for (int i = k.bitLength() - 2; i >= 0; --i) {
        MpUint nx, nz;
        if (k.bit(i)) {
            madd(x1, z1, x2, z2, nx, nz);
            x1 = nx;
            z1 = nz;
            mdouble(x2, z2);
        } else {
            madd(x2, z2, x1, z1, nx, nz);
            x2 = nx;
            z2 = nz;
            mdouble(x1, z1);
        }
    }

    if (z1.isZero())
        return AffinePoint::makeInfinity();
    if (z2.isZero()) {
        // (k+1)P == infinity, so kP == -P.
        return curve.negate(p);
    }

    // y recovery (Lopez & Dahab / Hankerson Alg 3.40 final step).
    MpUint x3 = f.mul(x1, f.inv(z1));
    MpUint a1 = f.add(x1, f.mul(x, z1));               // X1 + x Z1
    MpUint a2 = f.add(x2, f.mul(x, z2));               // X2 + x Z2
    MpUint zz12 = f.mul(z1, z2);
    MpUint num = f.add(f.mul(a1, a2),
                       f.mul(f.add(f.sqr(x), y), zz12));
    MpUint den = f.mul(x, zz12);
    MpUint y3 = f.add(f.mul(f.add(x, x3),
                            f.mul(num, f.inv(den))), y);
    return {x3, y3};
}

} // namespace ulecc
