/**
 * @file
 * The four standard diffuzz targets (mpint / field / ecdsa / pete).
 */

#include "check/oracles.hh"

#include <fstream>
#include <map>
#include <sstream>

#include "base/error.hh"
#include "check/refint.hh"
#include "ec/curve.hh"
#include "ec/scalar_mult.hh"
#include "ecdsa/ecdsa.hh"
#include "ecdsa/sha256.hh"
#include "mpint/binary_field.hh"
#include "sim/karatsuba_unit.hh"
#include "mpint/prime_field.hh"
#include "workload/asm_kernels.hh"

namespace ulecc::check
{

namespace
{

constexpr int kCapBits = MpUint::maxLimbs * 32;

bool
isHexString(const std::string &s)
{
    if (s.empty())
        return false;
    for (char c : s) {
        bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')
            || (c >= 'A' && c <= 'F');
        if (!ok)
            return false;
    }
    return true;
}

/** Operand parse; nullopt = out of domain (case passes vacuously). */
std::optional<MpUint>
tryMp(const std::string &s)
{
    if (!isHexString(s) || s.size() > kCapBits / 4)
        return std::nullopt;
    return MpUint::fromHex(s);
}

/** Decimal parse into [0, hi]; nullopt = out of domain. */
std::optional<uint64_t>
tryNum(const std::string &s, uint64_t hi)
{
    if (s.empty() || s.size() > 10)
        return std::nullopt;
    uint64_t v = 0;
    for (char c : s) {
        if (c < '0' || c > '9')
            return std::nullopt;
        v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    if (v > hi)
        return std::nullopt;
    return v;
}

std::string
mismatch(const std::string &what, const std::string &got,
         const std::string &want)
{
    return what + ": got " + got + " want " + want;
}

/**
 * Passes iff @p call throws UleccError(Errc::InvalidInput): the
 * contract of every inversion on a non-invertible input.
 */
template <class F>
std::optional<std::string>
expectInvalid(const std::string &what, F call)
{
    try {
        call();
    } catch (const UleccError &e) {
        if (e.code() == Errc::InvalidInput)
            return std::nullopt;
        return what + ": non-invertible input threw "
            + errcName(e.code());
    }
    return what + ": non-invertible input not rejected";
}

RefInt
ref(const MpUint &v)
{
    return RefInt::fromMp(v);
}

/* ------------------------------------------------------------------ */
/* mpint                                                              */
/* ------------------------------------------------------------------ */

class MpintTarget final : public Target
{
  public:
    std::string name() const override { return "mpint"; }

    CaseInput
    generate(DiffRng &rng) const override
    {
        CaseInput c;
        uint64_t r = rng.below(85);
        if (r < 10) {
            c.op = "add";
            MpUint a = rng.edgeMp(kCapBits - 1);
            MpUint b = rng.edgeMp(kCapBits - a.bitLength());
            c.args = {a.toHex(), b.toHex()};
        } else if (r < 18) {
            c.op = "sub";
            MpUint a = rng.edgeMp(kCapBits);
            MpUint b = rng.edgeMp(kCapBits);
            if (a < b)
                std::swap(a, b);
            c.args = {a.toHex(), b.toHex()};
        } else if (r < 36) {
            c.op = r < 27 ? "mulos" : "mulps";
            MpUint a = rng.edgeMp(kCapBits / 2);
            // Mostly in-range products; occasionally unconstrained so
            // the must-throw side of the capacity contract is hit too.
            int bmax = rng.below(8) == 0 ? kCapBits
                                         : kCapBits - a.bitLength();
            MpUint b = rng.edgeMp(bmax);
            c.args = {a.toHex(), b.toHex()};
        } else if (r < 41) {
            c.op = "sqr";
            c.args = {rng.edgeMp(kCapBits / 2).toHex()};
        } else if (r < 51) {
            c.op = "divmod";
            MpUint b = rng.edgeMp(kCapBits);
            if (b.isZero())
                b = MpUint(1);
            c.args = {rng.edgeMp(kCapBits).toHex(), b.toHex()};
        } else if (r < 57) {
            // Wide dividend, narrow divisor: the shape that used to
            // trip shiftLeft's capacity check inside divmod.
            c.op = "mod";
            MpUint m = rng.edgeMp(1 + rng.edgeBits(63));
            if (m.isZero())
                m = MpUint(3);
            c.args = {rng.edgeMp(kCapBits).toHex(), m.toHex()};
        } else if (r < 65) {
            c.op = "shl";
            c.args = {rng.edgeMp(kCapBits).toHex(),
                      std::to_string(rng.below(1400))};
        } else if (r < 70) {
            c.op = "shr";
            c.args = {rng.edgeMp(kCapBits).toHex(),
                      std::to_string(rng.below(1400))};
        } else if (r < 75) {
            c.op = "inv";
            MpUint m = rng.edgeMp(1 + rng.edgeBits(511));
            m.setBit(0); // odd modulus
            if (m == MpUint(1))
                m = MpUint(3);
            c.args = {rng.mpBelow(m).toHex(), m.toHex()};
        } else if (r < 78) {
            c.op = "bits";
            c.args = {rng.edgeMp(kCapBits).toHex(),
                      std::to_string(rng.below(1320)),
                      std::to_string(1 + rng.below(32))};
        } else if (r < 81) {
            c.op = "hex";
            c.args = {rng.edgeMp(kCapBits).toHex()};
        } else if (r < 83) {
            c.op = "cmp";
            MpUint a = rng.edgeMp(kCapBits);
            MpUint b = rng.below(4) ? rng.edgeMp(kCapBits) : a;
            c.args = {a.toHex(), b.toHex()};
        } else {
            // M2ADDU carry semantics: OvFlo:Hi:Lo += 2*rs*rt as one
            // 65-bit add.  Saturated operands make the doubled
            // product's own carry-out (bit 64) the common case.
            c.op = "m2acc";
            auto word = [&rng] {
                uint64_t w = rng.below(3)
                                 ? rng.next()
                                 : 0xFFFFFF00u + rng.below(256);
                return MpUint(static_cast<uint32_t>(w)).toHex();
            };
            c.args = {word(), word(), word(), word(), word()};
        }
        return c;
    }

    std::optional<std::string>
    check(const CaseInput &c) const override
    {
        const auto &a = c.args;
        if (c.op == "add" && a.size() == 2) {
            auto x = tryMp(a[0]), y = tryMp(a[1]);
            if (!x || !y)
                return std::nullopt;
            RefInt want = ref(*x).add(ref(*y));
            if (want.bitLength() > kCapBits)
                return std::nullopt;
            MpUint got = x->add(*y);
            if (ref(got) != want)
                return mismatch("add", got.toHex(), want.toHex());
        } else if (c.op == "sub" && a.size() == 2) {
            auto x = tryMp(a[0]), y = tryMp(a[1]);
            if (!x || !y || *x < *y)
                return std::nullopt;
            MpUint got = x->sub(*y);
            RefInt want = ref(*x).sub(ref(*y));
            if (ref(got) != want)
                return mismatch("sub", got.toHex(), want.toHex());
        } else if ((c.op == "mulos" || c.op == "mulps" || c.op == "sqr")
                   && !a.empty()) {
            auto x = tryMp(a[0]);
            if (!x)
                return std::nullopt;
            MpUint y;
            if (c.op == "sqr") {
                y = *x;
            } else {
                if (a.size() != 2)
                    return std::nullopt;
                auto p = tryMp(a[1]);
                if (!p)
                    return std::nullopt;
                y = *p;
            }
            RefInt want = ref(*x).mul(ref(y));
            bool fits = want.bitLength() <= kCapBits;
            bool threw = false;
            MpUint got;
            try {
                if (c.op == "mulos")
                    got = x->mulOperandScan(y);
                else if (c.op == "mulps")
                    got = x->mulProductScan(y);
                else
                    got = x->sqr();
            } catch (const UleccError &) {
                threw = true;
            }
            if (fits && threw)
                return c.op + ": in-range product threw OutOfRange";
            if (!fits && !threw)
                return c.op + ": overflowing product did not throw";
            if (fits && ref(got) != want)
                return mismatch(c.op, got.toHex(), want.toHex());
        } else if ((c.op == "divmod" || c.op == "mod") && a.size() == 2) {
            auto x = tryMp(a[0]), m = tryMp(a[1]);
            if (!x || !m || m->isZero())
                return std::nullopt;
            RefInt::DivResult want = ref(*x).divmod(ref(*m));
            if (c.op == "mod") {
                MpUint got = x->mod(*m);
                if (ref(got) != want.remainder)
                    return mismatch("mod", got.toHex(),
                                    want.remainder.toHex());
                return std::nullopt;
            }
            MpUint::DivResult got = x->divmod(*m);
            if (ref(got.quotient) != want.quotient)
                return mismatch("divmod q", got.quotient.toHex(),
                                want.quotient.toHex());
            if (ref(got.remainder) != want.remainder)
                return mismatch("divmod r", got.remainder.toHex(),
                                want.remainder.toHex());
            if (!(got.remainder < *m))
                return "divmod r >= divisor";
            // Recomposition invariant, entirely in the reference.
            RefInt back =
                want.quotient.mul(ref(*m)).add(want.remainder);
            if (back != ref(*x))
                return "divmod q*b+r != a (reference self-check)";
        } else if ((c.op == "shl" || c.op == "shr") && a.size() == 2) {
            auto x = tryMp(a[0]);
            auto k = tryNum(a[1], 100000);
            if (!x || !k)
                return std::nullopt;
            if (c.op == "shr") {
                MpUint got = x->shiftRight(static_cast<int>(*k));
                RefInt want = ref(*x).shiftRight(static_cast<int>(*k));
                if (ref(got) != want)
                    return mismatch("shr", got.toHex(), want.toHex());
                return std::nullopt;
            }
            // Zero stays zero under any shift, so it always fits.
            bool fits = x->isZero()
                || x->bitLength() + static_cast<int>(*k) <= kCapBits;
            bool threw = false;
            MpUint got;
            try {
                got = x->shiftLeft(static_cast<int>(*k));
            } catch (const UleccError &) {
                threw = true;
            }
            if (fits && threw)
                return "shl: in-range shift threw OutOfRange";
            if (!fits && !threw)
                return "shl: overflowing shift did not throw";
            if (fits) {
                RefInt want = ref(*x).shiftLeft(static_cast<int>(*k));
                if (ref(got) != want)
                    return mismatch("shl", got.toHex(), want.toHex());
            }
        } else if (c.op == "inv" && a.size() == 2) {
            auto x = tryMp(a[0]), m = tryMp(a[1]);
            if (!x || !m || !m->isOdd() || *m <= MpUint(1)
                || !(*x < *m))
                return std::nullopt;
            // Non-invertible (x == 0 included): Errc::InvalidInput.
            if (RefInt::gcd(ref(*x), ref(*m)) != RefInt(1))
                return expectInvalid("inv", [&] { x->modInverseOdd(*m); });
            MpUint got = x->modInverseOdd(*m);
            if (!(got < *m))
                return "inv: result >= modulus";
            if (ref(*x).mul(ref(got)).mod(ref(*m)) != RefInt(1))
                return "inv: a * a^-1 mod m != 1 (got " + got.toHex()
                    + ")";
        } else if (c.op == "bits" && a.size() == 3) {
            auto x = tryMp(a[0]);
            auto pos = tryNum(a[1], 4000);
            auto cnt = tryNum(a[2], 32);
            if (!x || !pos || !cnt || *cnt == 0)
                return std::nullopt;
            uint32_t got = x->bits(static_cast<int>(*pos),
                                   static_cast<int>(*cnt));
            RefInt rx = ref(*x);
            uint32_t want = 0;
            for (uint64_t i = 0; i < *cnt; ++i)
                want |= static_cast<uint32_t>(
                            rx.bit(static_cast<int>(*pos + i)))
                    << i;
            if (got != want)
                return mismatch("bits", std::to_string(got),
                                std::to_string(want));
        } else if (c.op == "hex" && a.size() == 1) {
            auto x = tryMp(a[0]);
            if (!x)
                return std::nullopt;
            std::string got = x->toHex();
            std::string want = RefInt::fromHex(a[0]).toHex();
            if (got != want)
                return mismatch("hex canonicalisation", got, want);
            if (MpUint::fromHex(got) != *x)
                return "hex: fromHex(toHex(a)) != a";
        } else if (c.op == "cmp" && a.size() == 2) {
            auto x = tryMp(a[0]), y = tryMp(a[1]);
            if (!x || !y)
                return std::nullopt;
            if (x->compare(*y) != ref(*x).compare(ref(*y)))
                return "cmp: sign disagrees with reference";
        } else if (c.op == "m2acc" && a.size() == 5) {
            uint32_t w[5];
            for (int i = 0; i < 5; ++i) {
                auto v = tryMp(a[i]);
                if (!v || v->size() > 1)
                    return std::nullopt;
                w[i] = v->isZero() ? 0 : v->limb(0);
            }
            // The paper's M2ADDU is ONE 65-bit add of 2*rs*rt into
            // OvFlo:Hi:Lo; the Karatsuba unit folds the doubling into
            // its accumulate and must agree with the 128-bit
            // reference, carry for carry.
            unsigned __int128 want =
                ((static_cast<unsigned __int128>(w[2]) << 64)
                 | (static_cast<uint64_t>(w[0]) << 32) | w[1])
                + 2 * static_cast<unsigned __int128>(w[3]) * w[4];
            // OvFlo is a 32-bit register: the 65-bit add's carry
            // wraps mod 2^32 like every accumulate before it.
            want &= ((unsigned __int128)1 << 96) - 1;
            KaratsubaUnit unit;
            unit.set(w[0], w[1], w[2]);
            unit.execute(KaratsubaOp::M2addu, w[3], w[4]);
            unsigned __int128 got =
                (static_cast<unsigned __int128>(unit.ovflo()) << 64)
                | (static_cast<uint64_t>(unit.hi()) << 32) | unit.lo();
            if (got != want)
                return mismatch("m2acc",
                                MpUint(static_cast<uint64_t>(got)).toHex(),
                                MpUint(static_cast<uint64_t>(want)).toHex());
        }
        return std::nullopt;
    }
};

/* ------------------------------------------------------------------ */
/* field                                                              */
/* ------------------------------------------------------------------ */

const PrimeField *
primeFieldFor(const std::string &tok)
{
    static std::map<std::string, PrimeField> fields = [] {
        std::map<std::string, PrimeField> m;
        m.emplace("p192", PrimeField(NistPrime::P192));
        m.emplace("p224", PrimeField(NistPrime::P224));
        m.emplace("p256", PrimeField(NistPrime::P256));
        m.emplace("p384", PrimeField(NistPrime::P384));
        m.emplace("p521", PrimeField(NistPrime::P521));
        // A non-NIST prime keeps the generic reduction and the
        // Montgomery n0' machinery honest: 2^255 - 19.
        m.emplace("p25519",
                  PrimeField(
                      MpUint::powerOfTwo(255).sub(MpUint(19))));
        return m;
    }();
    auto it = fields.find(tok);
    return it == fields.end() ? nullptr : &it->second;
}

const BinaryField *
binaryFieldFor(const std::string &tok)
{
    static std::map<std::string, BinaryField> fields = [] {
        std::map<std::string, BinaryField> m;
        m.emplace("b163", BinaryField(NistBinary::B163));
        m.emplace("b233", BinaryField(NistBinary::B233));
        m.emplace("b283", BinaryField(NistBinary::B283));
        m.emplace("b409", BinaryField(NistBinary::B409));
        m.emplace("b571", BinaryField(NistBinary::B571));
        return m;
    }();
    auto it = fields.find(tok);
    return it == fields.end() ? nullptr : &it->second;
}

/**
 * A reduce() input < 2^(2*bits): an edge-shaped value of up to 2*bits
 * bits, or (one time in four) a word pattern mixing all-zero,
 * all-ones and random 32-bit words -- the shapes that drive the
 * word-level reductions' carries and borrows to their bounds.
 */
MpUint
redInput(DiffRng &rng, int bits)
{
    if (rng.below(4))
        return rng.edgeMp(1 + rng.edgeBits(2 * bits - 1));
    MpUint w;
    for (int i = 0; i < (2 * bits + 31) / 32; ++i) {
        uint64_t pick = rng.below(3);
        uint32_t word = pick == 0 ? 0u
            : pick == 1           ? 0xffffffffu
                                  : static_cast<uint32_t>(rng.next());
        int high = 2 * bits - 32 * i; // bits of this word below 2^(2*bits)
        if (high < 32)
            word &= (1u << high) - 1;
        w.setLimb(i, word);
    }
    return w;
}

class FieldTarget final : public Target
{
  public:
    std::string name() const override { return "field"; }

    CaseInput
    generate(DiffRng &rng) const override
    {
        static const char *kPrimes[] = {"p192", "p224", "p256",
                                        "p384", "p521", "p25519"};
        static const char *kBinaries[] = {"b163", "b233", "b283",
                                          "b409", "b571"};
        CaseInput c;
        uint64_t r = rng.below(100);
        if (r < 50) {
            std::string tok = kPrimes[rng.below(6)];
            const PrimeField &f = *primeFieldFor(tok);
            MpUint p = f.modulus();
            uint64_t op = rng.below(100);
            if (op < 12) {
                c.op = "fadd";
            } else if (op < 22) {
                c.op = "fsub";
            } else if (op < 42) {
                c.op = "fmul";
            } else if (op < 52) {
                c.op = "fsqr";
            } else if (op < 70) {
                c.op = "fred";
                c.args = {tok, redInput(rng, f.bits()).toHex()};
                return c;
            } else if (op < 90) {
                c.op = op < 80 ? "fcios" : "ffips";
            } else {
                c.op = "finv";
                c.args = {tok, rng.mpBelow(p).toHex()};
                return c;
            }
            c.args = {tok, rng.mpBelow(p).toHex()};
            if (c.op != "fsqr")
                c.args.push_back(rng.mpBelow(p).toHex());
            return c;
        }
        if (r < 95) {
            std::string tok = kBinaries[rng.below(5)];
            const BinaryField &f = *binaryFieldFor(tok);
            int m = f.degree();
            uint64_t op = rng.below(100);
            if (op < 35) {
                c.op = "gmul";
            } else if (op < 50) {
                c.op = "gsqr";
            } else if (op < 70) {
                c.op = "gred";
                c.args = {tok,
                          rng.edgeMp(1 + rng.edgeBits(2 * m - 2))
                              .toHex()};
                return c;
            } else if (op < 85) {
                c.op = "gpmul";
            } else {
                c.op = "ginv";
                c.args = {tok,
                          rng.mp(1 + static_cast<int>(rng.below(m)))
                              .toHex()};
                return c;
            }
            c.args = {tok,
                      rng.edgeMp(1 + rng.edgeBits(m - 1)).toHex()};
            if (c.op != "gsqr")
                c.args.push_back(
                    rng.edgeMp(1 + rng.edgeBits(m - 1)).toHex());
            return c;
        }
        c.op = "clmul";
        c.args = {MpUint(static_cast<uint32_t>(rng.next())).toHex(),
                  MpUint(static_cast<uint32_t>(rng.next())).toHex()};
        return c;
    }

    std::optional<std::string>
    check(const CaseInput &c) const override
    {
        const auto &a = c.args;
        if (c.op == "clmul" && a.size() == 2) {
            auto x = tryMp(a[0]), y = tryMp(a[1]);
            if (!x || !y || x->bitLength() > 32 || y->bitLength() > 32)
                return std::nullopt;
            uint64_t got = clmul32(x->limb(0), y->limb(0));
            RefInt want = ref(*x).polyMul(ref(*y));
            if (ref(MpUint(got)) != want)
                return mismatch("clmul32", MpUint(got).toHex(),
                                want.toHex());
            return std::nullopt;
        }
        if (a.empty())
            return std::nullopt;
        if (c.op[0] == 'f')
            return checkPrime(c);
        if (c.op[0] == 'g')
            return checkBinary(c);
        return std::nullopt;
    }

  private:
    std::optional<std::string>
    checkPrime(const CaseInput &c) const
    {
        const auto &a = c.args;
        const PrimeField *f = primeFieldFor(a[0]);
        if (!f)
            return std::nullopt;
        RefInt rp = ref(f->modulus());
        if (c.op == "fred" && a.size() == 2) {
            auto w = tryMp(a[1]);
            if (!w)
                return std::nullopt;
            // reduce() takes w < 2^(2*bits) and rejects anything wider.
            if (w->bitLength() > 2 * f->bits()) {
                try {
                    f->reduce(*w);
                } catch (const UleccError &e) {
                    if (e.code() == Errc::InvalidInput)
                        return std::nullopt;
                    return "fred " + a[0] + ": over-wide input threw "
                        + errcName(e.code());
                }
                return "fred " + a[0] + ": over-wide input not rejected";
            }
            RefInt want = ref(*w).mod(rp);
            MpUint got = f->reduce(*w);
            if (ref(got) != want)
                return mismatch("reduce " + a[0], got.toHex(),
                                want.toHex());
            MpUint gen = f->reduceGeneric(*w);
            if (ref(gen) != want)
                return mismatch("reduceGeneric " + a[0], gen.toHex(),
                                want.toHex());
            return std::nullopt;
        }
        if (c.op == "finv" && a.size() == 2) {
            auto x = tryMp(a[1]);
            if (!x)
                return std::nullopt;
            // Both inversions reduce first; x == 0 (mod p) is
            // Errc::InvalidInput.
            if (ref(*x).mod(rp) == RefInt(0)) {
                if (auto bad = expectInvalid("finv " + a[0],
                                             [&] { f->inv(*x); }))
                    return bad;
                return expectInvalid("finv invFermat " + a[0],
                                     [&] { f->invFermat(*x); });
            }
            MpUint got = f->inv(*x);
            if (!(got < f->modulus()))
                return "finv: result >= p";
            if (ref(*x).mul(ref(got)).mod(rp) != RefInt(1))
                return "finv " + a[0] + ": a * a^-1 != 1 (got "
                    + got.toHex() + ")";
            MpUint fermat = f->invFermat(*x);
            if (fermat != got)
                return mismatch("finv vs invFermat " + a[0],
                                got.toHex(), fermat.toHex());
            return std::nullopt;
        }
        if (a.size() < 2)
            return std::nullopt;
        auto x = tryMp(a[1]);
        if (!x || !(*x < f->modulus()))
            return std::nullopt;
        MpUint y;
        if (c.op == "fsqr") {
            y = *x;
        } else {
            if (a.size() != 3)
                return std::nullopt;
            auto p = tryMp(a[2]);
            if (!p || !(*p < f->modulus()))
                return std::nullopt;
            y = *p;
        }
        RefInt prod = ref(*x).mul(ref(y)).mod(rp);
        if (c.op == "fadd") {
            MpUint got = f->add(*x, y);
            RefInt want = ref(*x).add(ref(y)).mod(rp);
            if (ref(got) != want)
                return mismatch("fadd " + a[0], got.toHex(),
                                want.toHex());
        } else if (c.op == "fsub") {
            MpUint got = f->sub(*x, y);
            RefInt want = ref(*x).add(rp).sub(ref(y)).mod(rp);
            if (ref(got) != want)
                return mismatch("fsub " + a[0], got.toHex(),
                                want.toHex());
        } else if (c.op == "fmul") {
            MpUint got = f->mul(*x, y);
            if (ref(got) != prod)
                return mismatch("fmul " + a[0], got.toHex(),
                                prod.toHex());
            MpUint ps = f->mulProductScan(*x, y);
            if (ps != got)
                return mismatch("fmul vs mulProductScan " + a[0],
                                got.toHex(), ps.toHex());
        } else if (c.op == "fsqr") {
            MpUint got = f->sqr(*x);
            if (ref(got) != prod)
                return mismatch("fsqr " + a[0], got.toHex(),
                                prod.toHex());
        } else if (c.op == "fcios" || c.op == "ffips") {
            // montMul returns a*b*R^-1; multiply back by R in the
            // reference to validate without computing R^-1.
            MpUint got = c.op == "fcios" ? f->montMulCios(*x, y)
                                         : f->montMulFips(*x, y);
            if (!(got < f->modulus()))
                return c.op + ": result >= p";
            RefInt gotR =
                ref(got).shiftLeft(32 * f->words()).mod(rp);
            if (gotR != prod)
                return c.op + " " + a[0] + ": result*R != a*b (got "
                    + got.toHex() + ")";
            MpUint other = c.op == "fcios" ? f->montMulFips(*x, y)
                                           : f->montMulCios(*x, y);
            if (other != got)
                return mismatch("cios vs fips " + a[0], got.toHex(),
                                other.toHex());
        }
        return std::nullopt;
    }

    std::optional<std::string>
    checkBinary(const CaseInput &c) const
    {
        const auto &a = c.args;
        const BinaryField *f = binaryFieldFor(a[0]);
        if (!f)
            return std::nullopt;
        RefInt rf = ref(f->poly());
        int m = f->degree();
        if (c.op == "gred" && a.size() == 2) {
            auto w = tryMp(a[1]);
            if (!w || w->bitLength() > 2 * m - 1)
                return std::nullopt;
            RefInt want = ref(*w).polyMod(rf);
            MpUint got = f->reduce(*w);
            if (ref(got) != want)
                return mismatch("gred " + a[0], got.toHex(),
                                want.toHex());
            MpUint gen = f->reduceGeneric(*w);
            if (ref(gen) != want)
                return mismatch("gred generic " + a[0], gen.toHex(),
                                want.toHex());
            return std::nullopt;
        }
        if (c.op == "ginv" && a.size() == 2) {
            auto x = tryMp(a[1]);
            if (!x)
                return std::nullopt;
            // All three inversions reduce first; x == 0 (mod f) is
            // Errc::InvalidInput.
            if (ref(*x).polyMod(rf) == RefInt(0)) {
                if (auto bad = expectInvalid("ginv " + a[0],
                                             [&] { f->inv(*x); }))
                    return bad;
                if (auto bad = expectInvalid("ginv invFermat " + a[0],
                                             [&] { f->invFermat(*x); }))
                    return bad;
                return expectInvalid("ginv invItohTsujii " + a[0],
                                     [&] { f->invItohTsujii(*x); });
            }
            MpUint got = f->inv(*x);
            if (ref(*x).polyMul(ref(got)).polyMod(rf) != RefInt(1))
                return "ginv " + a[0] + ": a * a^-1 != 1 (got "
                    + got.toHex() + ")";
            MpUint fermat = f->invFermat(*x);
            if (fermat != got)
                return mismatch("ginv vs invFermat " + a[0],
                                got.toHex(), fermat.toHex());
            MpUint itoh = f->invItohTsujii(*x);
            if (itoh != got)
                return mismatch("ginv vs invItohTsujii " + a[0],
                                got.toHex(), itoh.toHex());
            return std::nullopt;
        }
        if (a.size() < 2)
            return std::nullopt;
        auto x = tryMp(a[1]);
        if (!x || x->bitLength() > m)
            return std::nullopt;
        MpUint y;
        if (c.op == "gsqr") {
            y = *x;
        } else {
            if (a.size() != 3)
                return std::nullopt;
            auto p = tryMp(a[2]);
            if (!p || p->bitLength() > m)
                return std::nullopt;
            y = *p;
        }
        RefInt prod = ref(*x).polyMul(ref(y));
        if (c.op == "gpmul") {
            MpUint comb = f->polyMulComb(*x, y);
            if (ref(comb) != prod)
                return mismatch("polyMulComb " + a[0], comb.toHex(),
                                prod.toHex());
            MpUint cl = f->polyMulClmul(*x, y);
            if (cl != comb)
                return mismatch("polyMulComb vs Clmul " + a[0],
                                comb.toHex(), cl.toHex());
            return std::nullopt;
        }
        RefInt want = prod.polyMod(rf);
        if (c.op == "gmul") {
            MpUint got = f->mul(*x, y);
            if (ref(got) != want)
                return mismatch("gmul " + a[0], got.toHex(),
                                want.toHex());
            MpUint cl = f->mulClmul(*x, y);
            if (cl != got)
                return mismatch("gmul vs mulClmul " + a[0],
                                got.toHex(), cl.toHex());
        } else if (c.op == "gsqr") {
            MpUint got = f->sqr(*x);
            if (ref(got) != want)
                return mismatch("gsqr " + a[0], got.toHex(),
                                want.toHex());
        }
        return std::nullopt;
    }
};

/* ------------------------------------------------------------------ */
/* ecdsa                                                              */
/* ------------------------------------------------------------------ */

struct GoldenEntry
{
    std::string curve;
    std::vector<uint8_t> msg;
    MpUint d, qx, qy, k, r, s;
};

std::vector<uint8_t>
bytesFromHex(const std::string &hex)
{
    std::vector<uint8_t> out;
    if (hex.size() % 2)
        return out;
    auto nib = [](char c) -> int {
        if (c >= '0' && c <= '9')
            return c - '0';
        if (c >= 'a' && c <= 'f')
            return c - 'a' + 10;
        if (c >= 'A' && c <= 'F')
            return c - 'A' + 10;
        return -1;
    };
    for (size_t i = 0; i < hex.size(); i += 2) {
        int hi = nib(hex[i]), lo = nib(hex[i + 1]);
        if (hi < 0 || lo < 0)
            return {};
        out.push_back(static_cast<uint8_t>(hi * 16 + lo));
    }
    return out;
}

std::optional<Sha256Digest>
digestFromHex(const std::string &hex)
{
    std::vector<uint8_t> b = bytesFromHex(hex);
    if (b.size() != 32)
        return std::nullopt;
    Sha256Digest d;
    std::copy(b.begin(), b.end(), d.begin());
    return d;
}

const Curve *
curveByName(const std::string &name)
{
    static const CurveId kAll[] = {
        CurveId::P192, CurveId::P224, CurveId::P256, CurveId::P384,
        CurveId::P521, CurveId::B163, CurveId::B233, CurveId::B283,
    };
    for (CurveId id : kAll) {
        if (curveIdName(id) == name)
            return &standardCurve(id);
    }
    return nullptr;
}

const Ecdsa *
ecdsaFor(const std::string &curveName)
{
    static std::map<std::string, Ecdsa> engines;
    auto it = engines.find(curveName);
    if (it != engines.end())
        return &it->second;
    const Curve *cv = curveByName(curveName);
    if (!cv)
        return nullptr;
    return &engines.emplace(curveName, Ecdsa(*cv)).first->second;
}

std::vector<GoldenEntry>
loadGolden(const std::string &path)
{
    std::vector<GoldenEntry> out;
    std::ifstream in(path);
    if (!in)
        return out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream tokens(line);
        std::string tok;
        GoldenEntry e;
        bool ok = true;
        int fields = 0;
        while (tokens >> tok) {
            size_t eq = tok.find('=');
            if (eq == std::string::npos) {
                ok = false;
                break;
            }
            std::string key = tok.substr(0, eq);
            std::string val = tok.substr(eq + 1);
            try {
                if (key == "curve")
                    e.curve = val;
                else if (key == "msg")
                    e.msg = bytesFromHex(val);
                else if (key == "d")
                    e.d = MpUint::fromHex(val);
                else if (key == "qx")
                    e.qx = MpUint::fromHex(val);
                else if (key == "qy")
                    e.qy = MpUint::fromHex(val);
                else if (key == "k")
                    e.k = MpUint::fromHex(val);
                else if (key == "r")
                    e.r = MpUint::fromHex(val);
                else if (key == "s")
                    e.s = MpUint::fromHex(val);
                else
                    continue;
            } catch (const UleccError &) {
                ok = false;
                break;
            }
            ++fields;
        }
        if (ok && fields >= 8 && curveByName(e.curve))
            out.push_back(std::move(e));
    }
    return out;
}

class EcdsaTarget final : public Target
{
  public:
    explicit EcdsaTarget(const std::string &goldenDir)
    {
        auto merge = [this](const std::string &path) {
            std::vector<GoldenEntry> v = loadGolden(path);
            entries_.insert(entries_.end(), v.begin(), v.end());
        };
        merge(goldenDir + "/rfc6979_sha256.txt");
        merge(goldenDir + "/ecdsa_kat_sha256.txt");
    }

    size_t vectorCount() const { return entries_.size(); }

    std::string name() const override { return "ecdsa"; }

    CaseInput
    generate(DiffRng &rng) const override
    {
        static const char *kCurves[] = {"P-192", "P-224", "P-256",
                                        "P-384", "P-521", "B-163",
                                        "B-233", "B-283"};
        CaseInput c;
        uint64_t r = rng.below(100);
        if (r >= 55 && r < 75 && !entries_.empty()) {
            c.op = "nonce";
            c.args = {std::to_string(rng.below(entries_.size()))};
            return c;
        }
        if (r >= 75 && r < 92 && !entries_.empty()) {
            c.op = "kat";
            c.args = {std::to_string(rng.below(entries_.size()))};
            return c;
        }
        if (r >= 47 && r < 55) {
            // Optimised point multiplications against Algorithm 1.
            std::string curve = kCurves[rng.below(8)];
            const MpUint &n = curveByName(curve)->order();
            auto scalar = [&] {
                uint64_t shape = rng.below(4);
                if (shape < 2)
                    return n.sub(MpUint(1 + shape));
                MpUint k = rng.mp(1 + static_cast<int>(rng.below(64)));
                return k.isZero() ? MpUint(1) : k;
            };
            MpUint k1 = scalar();
            c.op = "smul";
            c.args = {curve, k1.toHex(), scalar().toHex()};
            return c;
        }
        if (r >= 92) {
            // Random sign/verify roundtrip on the cheapest curves.
            static const char *kFast[] = {"P-192", "B-163"};
            std::string curve = kFast[rng.below(2)];
            const Curve *cv = curveByName(curve);
            MpUint d = rng.mpBelow(cv->order());
            if (d.isZero())
                d = MpUint(1);
            c.op = "sv";
            c.args = {curve, d.toHex(), randomDigestHex(rng)};
            return c;
        }
        c.op = "b2i";
        c.args = {kCurves[rng.below(8)], randomDigestHex(rng)};
        return c;
    }

    std::optional<std::string>
    check(const CaseInput &c) const override
    {
        const auto &a = c.args;
        if ((c.op == "kat" || c.op == "nonce") && a.size() == 1) {
            auto i = tryNum(a[0], entries_.empty()
                                      ? 0
                                      : entries_.size() - 1);
            if (!i || entries_.empty())
                return std::nullopt;
            // KAT/nonce checks are deterministic per entry, so repeat
            // draws of the same index hit a memo instead of re-signing.
            auto &cache = c.op == "kat" ? katCache_ : nonceCache_;
            if (auto it = cache.find(*i); it != cache.end())
                return it->second;
            std::optional<std::string> res = c.op == "kat"
                                                 ? checkKat(entries_[*i])
                                                 : checkNonce(entries_[*i]);
            cache.emplace(*i, res);
            return res;
        }
        if (c.op == "b2i" && a.size() == 2) {
            const Ecdsa *ec = ecdsaFor(a[0]);
            auto h = digestFromHex(a[1]);
            if (!ec || !h)
                return std::nullopt;
            const MpUint &n = ec->curve().order();
            MpUint got = ec->digestToScalar(*h);
            RefInt want = RefInt::fromHex(a[1]);
            int qlen = n.bitLength();
            if (qlen < 256)
                want = want.shiftRight(256 - qlen);
            want = want.mod(ref(n));
            if (ref(got) != want)
                return mismatch("b2i " + a[0], got.toHex(),
                                want.toHex());
            return std::nullopt;
        }
        if (c.op == "smul" && a.size() == 3) {
            const Curve *cv = curveByName(a[0]);
            auto k1 = tryMp(a[1]), k2 = tryMp(a[2]);
            if (!cv || !k1 || !k2)
                return std::nullopt;
            const MpUint &n = cv->order();
            if (k1->isZero() || k2->isZero() || !(*k1 < n) || !(*k2 < n))
                return std::nullopt;
            auto same = [](const AffinePoint &x, const AffinePoint &y) {
                return x.infinity == y.infinity
                    && (x.infinity || (x.x == y.x && x.y == y.y));
            };
            auto hex = [](const AffinePoint &p) {
                return p.infinity ? std::string("inf")
                                  : p.x.toHex() + "," + p.y.toHex();
            };
            const AffinePoint &g = cv->generator();
            AffinePoint want = naiveScalarMul(*cv, *k1, g);
            AffinePoint got = scalarMul(*cv, *k1, g);
            if (!same(got, want))
                return mismatch("scalarMul " + a[0], hex(got), hex(want));
            // u1 G + u2 Q for Q = 2G, which shares no table point with G.
            AffinePoint q = cv->doubleAffine(g);
            want = cv->addAffine(want, naiveScalarMul(*cv, *k2, q));
            got = twinScalarMul(*cv, *k1, g, *k2, q);
            if (!same(got, want))
                return mismatch("twinScalarMul " + a[0], hex(got),
                                hex(want));
            return std::nullopt;
        }
        if (c.op == "sv" && a.size() == 3) {
            const Ecdsa *ec = ecdsaFor(a[0]);
            auto d = tryMp(a[1]);
            auto h = digestFromHex(a[2]);
            if (!ec || !d || !h)
                return std::nullopt;
            const MpUint &n = ec->curve().order();
            if (d->isZero() || !(*d < n))
                return std::nullopt;
            Signature sig = ec->signDigest(*d, *h, std::nullopt);
            if (sig.r.isZero() || !(sig.r < n) || sig.s.isZero()
                || !(sig.s < n))
                return "sv: signature component out of [1, n)";
            KeyPair kp = ec->keyFromPrivate(*d);
            if (!ec->verifyDigest(kp.q, *h, sig))
                return "sv: fresh signature failed to verify";
            Sha256Digest bad = *h;
            bad[0] ^= 0x01;
            if (ec->verifyDigest(kp.q, bad, sig))
                return "sv: signature verified a tampered digest";
            Signature badSig = sig;
            badSig.s = badSig.s == MpUint(1) ? MpUint(2)
                                             : badSig.s.sub(MpUint(1));
            if (ec->verifyDigest(kp.q, *h, badSig))
                return "sv: tampered s still verified";
            return std::nullopt;
        }
        return std::nullopt;
    }

  private:
    static std::string
    randomDigestHex(DiffRng &rng)
    {
        static const char *kHex = "0123456789abcdef";
        uint64_t shape = rng.below(10);
        if (shape == 0)
            return std::string(64, '0');
        if (shape == 1)
            return std::string(64, 'f'); // bits2int z1 >= n path
        std::string s;
        s.reserve(64);
        for (int i = 0; i < 64; ++i)
            s.push_back(kHex[rng.below(16)]);
        return s;
    }

    std::optional<std::string>
    checkKat(const GoldenEntry &e) const
    {
        const Ecdsa *ec = ecdsaFor(e.curve);
        if (!ec)
            return std::nullopt;
        Sha256Digest h = sha256(e.msg.data(), e.msg.size());
        KeyPair kp = ec->keyFromPrivate(e.d);
        if (kp.q.x != e.qx || kp.q.y != e.qy)
            return "kat " + e.curve + ": public key (" + kp.q.x.toHex()
                + ", " + kp.q.y.toHex() + ") != golden";
        Signature sig = ec->signDigest(e.d, h, std::nullopt);
        if (sig.r != e.r)
            return mismatch("kat " + e.curve + " r", sig.r.toHex(),
                            e.r.toHex());
        if (sig.s != e.s)
            return mismatch("kat " + e.curve + " s", sig.s.toHex(),
                            e.s.toHex());
        AffinePoint q(e.qx, e.qy);
        if (!ec->verifyDigest(q, h, sig))
            return "kat " + e.curve + ": golden signature rejected";
        // Tamper the *most-significant* digest byte: bits2int keeps
        // only the leftmost qlen bits, so a flip in the trailing bytes
        // is legitimately invisible on sub-256-bit curves.
        Sha256Digest bad = h;
        bad[0] ^= 0x80;
        if (ec->verifyDigest(q, bad, sig))
            return "kat " + e.curve + ": tampered digest verified";
        return std::nullopt;
    }

    std::optional<std::string>
    checkNonce(const GoldenEntry &e) const
    {
        const Curve *cv = curveByName(e.curve);
        if (!cv)
            return std::nullopt;
        Sha256Digest h = sha256(e.msg.data(), e.msg.size());
        MpUint got = rfc6979Nonce(e.d, h, cv->order());
        if (got != e.k)
            return mismatch("rfc6979 nonce " + e.curve, got.toHex(),
                            e.k.toHex());
        return std::nullopt;
    }

    std::vector<GoldenEntry> entries_;
    mutable std::map<size_t, std::optional<std::string>> katCache_;
    mutable std::map<size_t, std::optional<std::string>> nonceCache_;
};

/* ------------------------------------------------------------------ */
/* pete                                                               */
/* ------------------------------------------------------------------ */

class PeteTarget final : public Target
{
  public:
    std::string name() const override { return "pete"; }

    CaseInput
    generate(DiffRng &rng) const override
    {
        static const int kWidths[] = {2, 3, 6, 8};
        CaseInput c;
        uint64_t r = rng.below(100);
        if (r < 90) {
            int k = kWidths[rng.below(4)];
            if (r < 25)
                c.op = "mpadd";
            else if (r < 50)
                c.op = "mulos";
            else if (r < 70)
                c.op = "mulps";
            else
                c.op = "mulgf2";
            c.args = {std::to_string(k),
                      rng.edgeMp(1 + rng.edgeBits(32 * k - 1)).toHex(),
                      rng.edgeMp(1 + rng.edgeBits(32 * k - 1)).toHex()};
            return c;
        }
        c.op = "redp192";
        c.args = {rng.edgeMp(1 + rng.edgeBits(383)).toHex()};
        return c;
    }

    std::optional<std::string>
    check(const CaseInput &c) const override
    {
        const auto &a = c.args;
        if (c.op == "redp192" && a.size() == 1) {
            auto w = tryMp(a[0]);
            if (!w || w->bitLength() > 384)
                return std::nullopt;
            static const PrimeField f(NistPrime::P192);
            KernelRun run =
                runKernel(AsmKernel::RedP192, *w, MpUint(), 6);
            MpUint want = f.reduceGeneric(*w);
            if (run.result != want)
                return mismatch("pete redp192", run.result.toHex(),
                                want.toHex());
            return std::nullopt;
        }
        if (a.size() != 3)
            return std::nullopt;
        auto k = tryNum(a[0], 18);
        auto x = tryMp(a[1]), y = tryMp(a[2]);
        if (!k || *k < 1 || !x || !y)
            return std::nullopt;
        int bits = 32 * static_cast<int>(*k);
        if (x->bitLength() > bits || y->bitLength() > bits)
            return std::nullopt;
        AsmKernel kernel;
        MpUint want;
        if (c.op == "mpadd") {
            kernel = AsmKernel::MpAdd;
            want = x->add(*y);
        } else if (c.op == "mulos") {
            kernel = AsmKernel::MulOs;
            want = x->mulOperandScan(*y);
        } else if (c.op == "mulps") {
            kernel = AsmKernel::MulPsMaddu;
            want = x->mulProductScan(*y);
        } else if (c.op == "mulgf2") {
            kernel = AsmKernel::MulGf2;
            static const BinaryField bf(NistBinary::B571);
            want = bf.polyMulClmul(*x, *y);
        } else {
            return std::nullopt;
        }
        KernelRun run = runKernel(kernel, *x, *y, static_cast<int>(*k));
        if (run.result != want)
            return mismatch("pete " + c.op + " k=" + a[0],
                            run.result.toHex(), want.toHex());
        if ((c.op == "mulos" || c.op == "mulps")
            && run.multIssues != *k * *k)
            return mismatch("pete " + c.op + " multIssues",
                            std::to_string(run.multIssues),
                            std::to_string(*k * *k));
        return std::nullopt;
    }
};

} // namespace

std::unique_ptr<Target>
makeMpintTarget()
{
    return std::make_unique<MpintTarget>();
}

std::unique_ptr<Target>
makeFieldTarget()
{
    return std::make_unique<FieldTarget>();
}

std::unique_ptr<Target>
makeEcdsaTarget(const std::string &goldenDir)
{
    return std::make_unique<EcdsaTarget>(goldenDir);
}

size_t
ecdsaTargetVectorCount(const Target &target)
{
    const auto *e = dynamic_cast<const EcdsaTarget *>(&target);
    return e ? e->vectorCount() : 0;
}

std::unique_ptr<Target>
makePeteTarget()
{
    return std::make_unique<PeteTarget>();
}

std::vector<std::unique_ptr<Target>>
makeTargets(const std::string &goldenDir)
{
    std::vector<std::unique_ptr<Target>> targets;
    targets.push_back(makeMpintTarget());
    targets.push_back(makeFieldTarget());
    targets.push_back(makeEcdsaTarget(goldenDir));
    targets.push_back(makePeteTarget());
    return targets;
}

} // namespace ulecc::check
