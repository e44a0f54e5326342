/**
 * @file
 * Curve arithmetic (Jacobian and Lopez-Dahab coordinates) and the
 * standard-curve registry.
 */

#include "ec/curve.hh"

#include "base/error.hh"
#include "base/once_map.hh"

#include <cassert>
#include <stdexcept>

namespace ulecc
{

AffinePoint
naiveScalarMul(const Curve &c, MpUint k, AffinePoint p)
{
    AffinePoint q = AffinePoint::makeInfinity();
    while (!k.isZero()) {
        if (k.isOdd())
            q = c.addAffine(q, p);
        k = k.shiftRight(1);
        p = c.doubleAffine(p);
    }
    return q;
}

bool
Curve::orderVerified() const
{
    // A synthetic order cannot pass: answer before any field work.
    if (synthetic_ || g_.infinity || n_.isZero() || !onCurve(g_))
        return false;
    return naiveScalarMul(*this, n_, g_).infinity;
}

std::vector<AffineElem>
Curve::toAffineBatch(const std::vector<ProjPoint> &points) const
{
    // Montgomery's simultaneous inversion: one field inversion plus
    // 3(n-1) multiplications inverts every non-trivial Z at once.
    std::vector<AffineElem> out(points.size());
    std::vector<size_t> live;
    std::vector<FieldElem> prefix;
    FieldElem acc = FieldElem::word(1);
    for (size_t i = 0; i < points.size(); ++i) {
        if (points[i].isInfinity())
            continue;
        live.push_back(i);
        prefix.push_back(acc);
        acc = fieldMul(acc, points[i].z);
    }
    if (live.empty())
        return out;
    FieldElem inv_acc = fieldInv(acc);
    for (size_t j = live.size(); j-- > 0;) {
        size_t i = live[j];
        FieldElem zinv = fieldMul(inv_acc, prefix[j]);
        inv_acc = fieldMul(inv_acc, points[i].z);
        out[i] = affineFromProj(points[i], zinv);
    }
    return out;
}

//
// ---------------------------------------------------------------------
// PrimeCurve
// ---------------------------------------------------------------------
//

PrimeCurve::PrimeCurve(std::string name, NistPrime prime, const MpUint &a,
                       const MpUint &b, const AffinePoint &g,
                       const MpUint &n, bool synthetic)
    : PrimeCurve(std::move(name), nistPrimeValue(prime), a, b, g, n,
                 synthetic)
{}

PrimeCurve::PrimeCurve(std::string name, const MpUint &p, const MpUint &a,
                       const MpUint &b, const AffinePoint &g,
                       const MpUint &n, bool synthetic)
    : Curve(std::move(name), g, n, synthetic), field_(p), a_(a), b_(b),
      aElem_(field_.elem(a)), two_(field_.elem(MpUint(2))),
      three_(field_.elem(MpUint(3))), four_(field_.elem(MpUint(4))),
      eight_(field_.elem(MpUint(8)))
{}

bool
PrimeCurve::onCurve(const AffinePoint &p) const
{
    if (p.infinity)
        return true;
    const PrimeField &f = field_;
    MpUint lhs = f.sqr(p.y);
    MpUint rhs = f.add(f.mul(f.sqr(p.x), p.x),
                       f.add(f.mul(a_, p.x), b_));
    return lhs == rhs;
}

AffinePoint
PrimeCurve::negate(const AffinePoint &p) const
{
    if (p.infinity)
        return p;
    return {p.x, field_.neg(p.y)};
}

AffinePoint
PrimeCurve::addAffine(const AffinePoint &p, const AffinePoint &q) const
{
    // Paper Eq. 2.3 / 2.4.
    if (p.infinity)
        return q;
    if (q.infinity)
        return p;
    const PrimeField &f = field_;
    if (p.x == q.x) {
        if (p.y == q.y)
            return doubleAffine(p);
        return AffinePoint::makeInfinity(); // P + (-P)
    }
    MpUint lambda = f.mul(f.sub(q.y, p.y),
                          f.inv(f.sub(q.x, p.x)));
    MpUint x3 = f.sub(f.sub(f.sqr(lambda), p.x), q.x);
    MpUint y3 = f.sub(f.mul(lambda, f.sub(p.x, x3)), p.y);
    return {x3, y3};
}

AffinePoint
PrimeCurve::doubleAffine(const AffinePoint &p) const
{
    // Paper Eq. 2.5 / 2.6.
    if (p.infinity || p.y.isZero())
        return AffinePoint::makeInfinity();
    const PrimeField &f = field_;
    MpUint num = f.add(f.mul(MpUint(3), f.sqr(p.x)), a_);
    MpUint lambda = f.mul(num, f.inv(f.add(p.y, p.y)));
    MpUint x3 = f.sub(f.sqr(lambda), f.add(p.x, p.x));
    MpUint y3 = f.sub(f.mul(lambda, f.sub(p.x, x3)), p.y);
    return {x3, y3};
}

AffineElem
PrimeCurve::toElem(const AffinePoint &p) const
{
    if (p.infinity)
        return {};
    return {field_.elem(p.x), field_.elem(p.y), false};
}

AffineElem
PrimeCurve::negate(const AffineElem &p) const
{
    if (p.infinity)
        return p;
    return {p.x, field_.neg(p.y), false};
}

ProjPoint
PrimeCurve::toProj(const AffineElem &p) const
{
    const FieldElem one = FieldElem::word(1);
    if (p.infinity)
        return {one, one, FieldElem()};
    return {p.x, p.y, one};
}

AffinePoint
PrimeCurve::toAffine(const ProjPoint &p) const
{
    if (p.isInfinity())
        return AffinePoint::makeInfinity();
    const PrimeField &f = field_;
    FieldElem zi = f.inv(p.z);
    FieldElem zi2 = f.sqr(zi);
    return {f.value(f.mul(p.x, zi2)), f.value(f.mul(p.y, f.mul(zi2, zi)))};
}

ProjPoint
PrimeCurve::doubleProj(const ProjPoint &p) const
{
    // Jacobian doubling (general a):
    //   S = 4 X Y^2,  M = 3 X^2 + a Z^4
    //   X' = M^2 - 2S,  Y' = M (S - X') - 8 Y^4,  Z' = 2 Y Z
    if (p.isInfinity() || p.y.isZero())
        return toProj(AffineElem());
    const PrimeField &f = field_;
    FieldElem y2 = f.sqr(p.y);
    FieldElem s = f.mul(four_, f.mul(p.x, y2));
    FieldElem z2 = f.sqr(p.z);
    FieldElem m = f.add(f.mul(three_, f.sqr(p.x)),
                        f.mul(aElem_, f.sqr(z2)));
    FieldElem x3 = f.sub(f.sqr(m), f.add(s, s));
    FieldElem y4x8 = f.mul(eight_, f.sqr(y2));
    FieldElem y3 = f.sub(f.mul(m, f.sub(s, x3)), y4x8);
    FieldElem z3 = f.mul(two_, f.mul(p.y, p.z));
    return {x3, y3, z3};
}

FieldElem
PrimeCurve::fieldInv(const FieldElem &a) const
{
    return field_.inv(a);
}

FieldElem
PrimeCurve::fieldMul(const FieldElem &a, const FieldElem &b) const
{
    return field_.mul(a, b);
}

AffineElem
PrimeCurve::affineFromProj(const ProjPoint &p, const FieldElem &zinv) const
{
    FieldElem zi2 = field_.sqr(zinv);
    return {field_.mul(p.x, zi2), field_.mul(p.y, field_.mul(zi2, zinv)),
            false};
}

ProjPoint
PrimeCurve::addMixed(const ProjPoint &p, const AffineElem &q) const
{
    // Mixed Jacobian + affine addition.
    if (q.infinity)
        return p;
    if (p.isInfinity())
        return toProj(q);
    const PrimeField &f = field_;
    FieldElem z1z1 = f.sqr(p.z);
    FieldElem u2 = f.mul(q.x, z1z1);
    FieldElem s2 = f.mul(q.y, f.mul(z1z1, p.z));
    FieldElem h = f.sub(u2, p.x);
    FieldElem r = f.sub(s2, p.y);
    if (h.isZero()) {
        if (r.isZero())
            return doubleProj(p);
        return toProj(AffineElem()); // P + (-P)
    }
    FieldElem h2 = f.sqr(h);
    FieldElem h3 = f.mul(h2, h);
    FieldElem v = f.mul(p.x, h2);
    FieldElem x3 = f.sub(f.sub(f.sqr(r), h3), f.add(v, v));
    FieldElem y3 = f.sub(f.mul(r, f.sub(v, x3)), f.mul(p.y, h3));
    FieldElem z3 = f.mul(p.z, h);
    return {x3, y3, z3};
}

//
// ---------------------------------------------------------------------
// BinaryCurve
// ---------------------------------------------------------------------
//

BinaryCurve::BinaryCurve(std::string name, NistBinary fieldKind,
                         const MpUint &a, const MpUint &b,
                         const AffinePoint &g, const MpUint &n,
                         bool synthetic)
    : BinaryCurve(std::move(name), nistBinaryPoly(fieldKind), a, b, g, n,
                  synthetic)
{}

BinaryCurve::BinaryCurve(std::string name, const MpUint &poly,
                         const MpUint &a, const MpUint &b,
                         const AffinePoint &g, const MpUint &n,
                         bool synthetic)
    : Curve(std::move(name), g, n, synthetic), field_(poly), a_(a), b_(b),
      aElem_(field_.elem(a)), bElem_(field_.elem(b))
{}

bool
BinaryCurve::onCurve(const AffinePoint &p) const
{
    if (p.infinity)
        return true;
    const BinaryField &f = field_;
    // y^2 + xy == x^3 + a x^2 + b
    MpUint lhs = f.add(f.sqr(p.y), f.mul(p.x, p.y));
    MpUint x2 = f.sqr(p.x);
    MpUint rhs = f.add(f.add(f.mul(x2, p.x), f.mul(a_, x2)), b_);
    return lhs == rhs;
}

AffinePoint
BinaryCurve::negate(const AffinePoint &p) const
{
    if (p.infinity)
        return p;
    return {p.x, field_.add(p.x, p.y)};
}

AffinePoint
BinaryCurve::addAffine(const AffinePoint &p, const AffinePoint &q) const
{
    if (p.infinity)
        return q;
    if (q.infinity)
        return p;
    const BinaryField &f = field_;
    if (p.x == q.x) {
        if (p.y == q.y)
            return doubleAffine(p);
        return AffinePoint::makeInfinity(); // q == -p
    }
    // lambda = (y1 + y2) / (x1 + x2)
    MpUint lambda = f.mul(f.add(p.y, q.y), f.inv(f.add(p.x, q.x)));
    MpUint x3 = f.add(f.add(f.add(f.sqr(lambda), lambda),
                            f.add(p.x, q.x)), a_);
    MpUint y3 = f.add(f.add(f.mul(lambda, f.add(p.x, x3)), x3), p.y);
    return {x3, y3};
}

AffinePoint
BinaryCurve::doubleAffine(const AffinePoint &p) const
{
    if (p.infinity || p.x.isZero())
        return AffinePoint::makeInfinity();
    const BinaryField &f = field_;
    // lambda = x + y/x
    MpUint lambda = f.add(p.x, f.mul(p.y, f.inv(p.x)));
    MpUint x3 = f.add(f.add(f.sqr(lambda), lambda), a_);
    MpUint y3 = f.add(f.sqr(p.x),
                      f.mul(f.add(lambda, MpUint(1)), x3));
    return {x3, y3};
}

AffineElem
BinaryCurve::toElem(const AffinePoint &p) const
{
    if (p.infinity)
        return {};
    return {field_.elem(p.x), field_.elem(p.y), false};
}

AffineElem
BinaryCurve::negate(const AffineElem &p) const
{
    if (p.infinity)
        return p;
    return {p.x, field_.add(p.x, p.y), false};
}

ProjPoint
BinaryCurve::toProj(const AffineElem &p) const
{
    const FieldElem one = FieldElem::word(1);
    if (p.infinity)
        return {one, FieldElem(), FieldElem()};
    return {p.x, p.y, one};
}

AffinePoint
BinaryCurve::toAffine(const ProjPoint &p) const
{
    if (p.isInfinity())
        return AffinePoint::makeInfinity();
    const BinaryField &f = field_;
    FieldElem zi = f.inv(p.z);
    return {f.value(f.mul(p.x, zi)), f.value(f.mul(p.y, f.sqr(zi)))};
}

ProjPoint
BinaryCurve::doubleProj(const ProjPoint &p) const
{
    // Lopez-Dahab doubling (Hankerson et al., Algorithm 3.36):
    //   Z3 = X1^2 Z1^2
    //   X3 = X1^4 + b Z1^4
    //   Y3 = b Z1^4 Z3 + X3 (a Z3 + Y1^2 + b Z1^4)
    if (p.isInfinity() || p.x.isZero())
        return toProj(AffineElem());
    const BinaryField &f = field_;
    FieldElem z2 = f.sqr(p.z);
    FieldElem x2 = f.sqr(p.x);
    FieldElem z3 = f.mul(x2, z2);
    FieldElem bz4 = f.mul(bElem_, f.sqr(z2));
    FieldElem x3 = f.add(f.sqr(x2), bz4);
    FieldElem inner = f.add(f.add(f.mul(aElem_, z3), f.sqr(p.y)), bz4);
    FieldElem y3 = f.add(f.mul(bz4, z3), f.mul(x3, inner));
    return {x3, y3, z3};
}

FieldElem
BinaryCurve::fieldInv(const FieldElem &a) const
{
    return field_.inv(a);
}

FieldElem
BinaryCurve::fieldMul(const FieldElem &a, const FieldElem &b) const
{
    return field_.mul(a, b);
}

AffineElem
BinaryCurve::affineFromProj(const ProjPoint &p, const FieldElem &zinv) const
{
    return {field_.mul(p.x, zinv), field_.mul(p.y, field_.sqr(zinv)),
            false};
}

ProjPoint
BinaryCurve::addMixed(const ProjPoint &p, const AffineElem &q) const
{
    // Mixed Lopez-Dahab + affine addition (Hankerson et al.,
    // Algorithm 3.37).
    if (q.infinity)
        return p;
    if (p.isInfinity())
        return toProj(q);
    const BinaryField &f = field_;
    FieldElem z1sq = f.sqr(p.z);
    FieldElem a_coef = f.add(f.mul(q.y, z1sq), p.y);          // A
    FieldElem b_coef = f.add(f.mul(q.x, p.z), p.x);           // B
    if (b_coef.isZero()) {
        if (a_coef.isZero())
            return doubleProj(p);
        return toProj(AffineElem()); // q == -p
    }
    FieldElem c_coef = f.mul(p.z, b_coef);                    // C
    FieldElem d_coef = f.mul(f.sqr(b_coef),
                             f.add(c_coef, f.mul(aElem_, z1sq))); // D
    FieldElem z3 = f.sqr(c_coef);
    FieldElem e_coef = f.mul(a_coef, c_coef);                 // E
    FieldElem x3 = f.add(f.add(f.sqr(a_coef), d_coef), e_coef);
    FieldElem f_coef = f.add(x3, f.mul(q.x, z3));             // F
    FieldElem g_coef = f.mul(f.add(q.x, q.y), f.sqr(z3));     // G
    FieldElem y3 = f.add(f.mul(f.add(e_coef, z3), f_coef), g_coef);
    return {x3, y3, z3};
}

//
// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------
//

namespace
{

AffinePoint
pointHex(const char *x, const char *y)
{
    return {MpUint::fromHex(x), MpUint::fromHex(y)};
}

std::unique_ptr<Curve>
buildCurve(CurveId id)
{
    switch (id) {
      case CurveId::P192:
        return std::make_unique<PrimeCurve>(
            "P-192", NistPrime::P192,
            nistPrimeValue(NistPrime::P192).sub(MpUint(3)),
            MpUint::fromHex("64210519e59c80e70fa7e9ab72243049"
                            "feb8deecc146b9b1"),
            pointHex("188da80eb03090f67cbf20eb43a18800f4ff0afd82ff1012",
                     "07192b95ffc8da78631011ed6b24cdd573f977a11e794811"),
            MpUint::fromHex("ffffffffffffffffffffffff99def836"
                            "146bc9b1b4d22831"));
      case CurveId::P224:
        return std::make_unique<PrimeCurve>(
            "P-224", NistPrime::P224,
            nistPrimeValue(NistPrime::P224).sub(MpUint(3)),
            MpUint::fromHex("b4050a850c04b3abf54132565044b0b7"
                            "d7bfd8ba270b39432355ffb4"),
            pointHex("b70e0cbd6bb4bf7f321390b94a03c1d356c21122343280d6"
                     "115c1d21",
                     "bd376388b5f723fb4c22dfe6cd4375a05a07476444d58199"
                     "85007e34"),
            MpUint::fromHex("ffffffffffffffffffffffffffff16a2"
                            "e0b8f03e13dd29455c5c2a3d"));
      case CurveId::P256:
        return std::make_unique<PrimeCurve>(
            "P-256", NistPrime::P256,
            nistPrimeValue(NistPrime::P256).sub(MpUint(3)),
            MpUint::fromHex("5ac635d8aa3a93e7b3ebbd55769886bc"
                            "651d06b0cc53b0f63bce3c3e27d2604b"),
            pointHex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0"
                     "f4a13945d898c296",
                     "4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ece"
                     "cbb6406837bf51f5"),
            MpUint::fromHex("ffffffff00000000ffffffffffffffff"
                            "bce6faada7179e84f3b9cac2fc632551"));
      case CurveId::P384:
        return std::make_unique<PrimeCurve>(
            "P-384", NistPrime::P384,
            nistPrimeValue(NistPrime::P384).sub(MpUint(3)),
            MpUint::fromHex("b3312fa7e23ee7e4988e056be3f82d19"
                            "181d9c6efe8141120314088f5013875a"
                            "c656398d8a2ed19d2a85c8edd3ec2aef"),
            pointHex("aa87ca22be8b05378eb1c71ef320ad746e1d3b628ba79b98"
                     "59f741e082542a385502f25dbf55296c3a545e3872760ab7",
                     "3617de4a96262c6f5d9e98bf9292dc29f8f41dbd289a147c"
                     "e9da3113b5f0b8c00a60b1ce1d7e819d7a431d7c90ea0e5f"),
            MpUint::fromHex("ffffffffffffffffffffffffffffffff"
                            "ffffffffffffffffc7634d81f4372ddf"
                            "581a0db248b0a77aecec196accc52973"));
      case CurveId::P521:
        return std::make_unique<PrimeCurve>(
            "P-521", NistPrime::P521,
            nistPrimeValue(NistPrime::P521).sub(MpUint(3)),
            MpUint::fromHex("0051953eb9618e1c9a1f929a21a0b685"
                            "40eea2da725b99b315f3b8b489918ef1"
                            "09e156193951ec7e937b1652c0bd3bb1"
                            "bf073573df883d2c34f1ef451fd46b50"
                            "3f00"),
            pointHex("00c6858e06b70404e9cd9e3ecb662395b4429c648139053f"
                     "b521f828af606b4d3dbaa14b5e77efe75928fe1dc127a2ff"
                     "a8de3348b3c1856a429bf97e7e31c2e5bd66",
                     "011839296a789a3bc0045c8a5fb42c7d1bd998f54449579b"
                     "446817afbd17273e662c97ee72995ef42640c550b9013fad"
                     "0761353c7086a272c24088be94769fd16650"),
            MpUint::fromHex("01ffffffffffffffffffffffffffffffff"
                            "fffffffffffffffffffffffffffffffffa"
                            "51868783bf2f966b7fcc0148f709a5d03b"
                            "b5c9b8899c47aebb6fb71e91386409"));
      case CurveId::B163:
        return std::make_unique<BinaryCurve>(
            "B-163", NistBinary::B163, MpUint(1),
            MpUint::fromHex("20a601907b8c953ca1481eb10512f78744a3205fd"),
            pointHex("3f0eba16286a2d57ea0991168d4994637e8343e36",
                     "0d51fbc6c71a0094fa2cdd545b11c5c0c797324f1"),
            MpUint::fromHex("40000000000000000000292fe77e70c12a4234c33"));
      case CurveId::B233:
        return std::make_unique<BinaryCurve>(
            "B-233", NistBinary::B233, MpUint(1),
            MpUint::fromHex("066647ede6c332c7f8c0923bb58213b3"
                            "33b20e9ce4281fe115f7d8f90ad"),
            pointHex("0fac9dfcbac8313bb2139f1bb755fef65bc391f8"
                     "b36f8f8eb7371fd558b",
                     "1006a08a41903350678e58528bebf8a0beff867a"
                     "7ca36716f7e01f81052"),
            MpUint::fromHex("1000000000000000000000000000013e"
                            "974e72f8a6922031d2603cfe0d7"));
      case CurveId::B283:
        return std::make_unique<BinaryCurve>(
            "B-283", NistBinary::B283, MpUint(1),
            MpUint::fromHex("27b680ac8b8596da5a4af8a19a0303fc"
                            "a97fd7645309fa2a581485af6263e313"
                            "b79a2f5"),
            pointHex("5f939258db7dd90e1934f8c70b0dfec2eed25b85"
                     "57eac9c80e2e198f8cdbecd86b12053",
                     "3676854fe24141cb98fe6d4b20d02b4516ff7023"
                     "50eddb0826779c813f0df45be8112f4"),
            MpUint::fromHex("3ffffffffffffffffffffffffffffffffff"
                            "ef90399660fc938a90165b042a7cefadb307"));
      case CurveId::B409:
        // Synthetic stand-in of the correct field and order size (see
        // DESIGN.md): the generator is a genuine point of
        // y^2 + xy = x^3 + x^2 + 1, the first x >= 2 the half-trace
        // search finds (CurveRegistry.SyntheticGeneratorsArePinned
        // re-derives it), so the arithmetic is fully representative;
        // only the claimed order is synthetic (latency/energy
        // evaluation only).
        return std::make_unique<BinaryCurve>(
            "B-409s", NistBinary::B409, MpUint(1), MpUint(1),
            pointHex("3",
                     "1757486742c09f6b73d2bf0e09946d2ba8d547ed26a431ac"
                     "cd3538b35db4e1d61d31488bbf555d882ab73d95c8b9f69b"
                     "614c781"),
            MpUint::powerOfTwo(408).add(MpUint(0x1DB)),
            /*synthetic=*/true);
      case CurveId::B571:
        // Synthetic stand-in, pinned the same way as B-409s.
        return std::make_unique<BinaryCurve>(
            "B-571s", NistBinary::B571, MpUint(1), MpUint(1),
            pointHex("3",
                     "66a8a76d332c0ef206cfaa2e6061ed1892c8b812b576866b"
                     "4b9c4e958213ca7a9ba71068a34b14fe1631df852fea91d3"
                     "8765389efc01ff979cdfd0513dcd52a0a14ff0b5059ebaf"),
            MpUint::powerOfTwo(570).add(MpUint(0x425)),
            /*synthetic=*/true);
    }
    throw UleccError(Errc::InvalidInput, "buildCurve: bad id");
}

} // namespace

const Curve &
standardCurve(CurveId id)
{
    static OnceMap<CurveId, std::unique_ptr<Curve>> cache;
    return *cache.get(id, [id] { return buildCurve(id); });
}

const std::vector<CurveId> &
primeCurveIds()
{
    static const std::vector<CurveId> ids = {
        CurveId::P192, CurveId::P224, CurveId::P256, CurveId::P384,
        CurveId::P521,
    };
    return ids;
}

const std::vector<CurveId> &
binaryCurveIds()
{
    static const std::vector<CurveId> ids = {
        CurveId::B163, CurveId::B233, CurveId::B283, CurveId::B409,
        CurveId::B571,
    };
    return ids;
}

std::string
curveIdName(CurveId id)
{
    return standardCurve(id).name();
}

int
curveIdBits(CurveId id)
{
    switch (id) {
      case CurveId::P192: return 192;
      case CurveId::P224: return 224;
      case CurveId::P256: return 256;
      case CurveId::P384: return 384;
      case CurveId::P521: return 521;
      case CurveId::B163: return 163;
      case CurveId::B233: return 233;
      case CurveId::B283: return 283;
      case CurveId::B409: return 409;
      case CurveId::B571: return 571;
    }
    return 0;
}

bool
curveIdIsBinary(CurveId id)
{
    switch (id) {
      case CurveId::B163:
      case CurveId::B233:
      case CurveId::B283:
      case CurveId::B409:
      case CurveId::B571:
        return true;
      default:
        return false;
    }
}

} // namespace ulecc
