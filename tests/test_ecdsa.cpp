/**
 * @file
 * SHA-256, HMAC, RFC 6979, and ECDSA protocol tests.
 */

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ec/toy_curves.hh"
#include "ecdsa/ecdsa.hh"
#include "test_util.hh"

using namespace ulecc;
using ulecc::test::Rng;

namespace
{

/** Renders a digest as lowercase hex, the form the KATs are written in. */
std::string
digestHex(const Sha256Digest &d)
{
    static const char digits[] = "0123456789abcdef";
    std::string s;
    for (uint8_t b : d) {
        s.push_back(digits[b >> 4]);
        s.push_back(digits[b & 0xF]);
    }
    return s;
}

} // namespace

TEST(Sha256, FipsVectors)
{
    EXPECT_EQ(digestHex(sha256("")),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(digestHex(sha256("abc")),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(digestHex(sha256(
                  "abcdbcdecdefdefgefghfghighijhijk"
                  "ijkljklmklmnlmnomnopnopq")),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, LongInputAndChunking)
{
    // One million 'a's, fed in irregular chunks.
    Sha256 ctx;
    std::string chunk(997, 'a');
    size_t fed = 0;
    while (fed + chunk.size() <= 1000000) {
        ctx.update(chunk);
        fed += chunk.size();
    }
    ctx.update(std::string(1000000 - fed, 'a'));
    EXPECT_EQ(digestHex(ctx.final()),
              "cdc76e5c9914fb9281a1c7e284d73e67"
              "f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, BoundaryLengths)
{
    // 55/56/64-byte messages cross the padding boundaries.
    for (size_t len : {55u, 56u, 63u, 64u, 65u}) {
        std::string m(len, 'x');
        Sha256 a;
        a.update(m);
        // Byte-at-a-time must agree with bulk.
        Sha256 b;
        for (char ch : m)
            b.update(std::string_view(&ch, 1));
        EXPECT_EQ(digestHex(a.final()), digestHex(b.final())) << len;
    }
}

TEST(Sha256, PaddingBoundaryKats)
{
    // Known answers (independently computed) for message lengths that
    // land exactly on the padding boundaries: 55 bytes is the longest
    // single-block message, 56 forces a length-only second block, 64
    // is a full block, and 119/120 straddle the two-block boundary
    // the same way.
    struct { size_t len; const char *digest; } kats[] = {
        {55, "d5e285683cd4efc02d021a5c62014694"
             "958901005d6f71e89e0989fac77e4072"},
        {56, "04c26261370ee7541549d16dee320c72"
             "3e3fd14671e66a099afe0a377c16888e"},
        {63, "75220b47218278e656f2013bb8f0c455"
             "a25eaf01e86c64924e9d48d89776d6f2"},
        {64, "7ce100971f64e7001e8fe5a51973ecdf"
             "e1ced42befe7ee8d5fd6219506b5393c"},
        {65, "9537c5fdf120482f7d58d25e9ed583f5"
             "2c02b4e304ea814db1633ad565aed7e9"},
        {119, "000b48d4edf0fa7bee3c6236ecd2785b"
              "aa5db4eeb8bb54341b029e0d9fa5fb0c"},
        {120, "13f05a0b594787f5ecd315edc96141bd"
              "3243203d1b7d4f0836f37308b276ba98"},
    };
    for (const auto &kat : kats) {
        std::string m(kat.len, 'x');
        EXPECT_EQ(digestHex(sha256(m)), kat.digest) << kat.len;
    }
}

TEST(Sha256, LengthCounterCrossesThirtyTwoBits)
{
    // 512 MiB + 7 bytes = 2^32 + 56 bits of input: the message
    // bit-length no longer fits in 32 bits, pinning the full 64-bit
    // length-padding path.  Hashing half a gigabyte takes a few
    // seconds, so the test is opt-in.
    if (!std::getenv("ULECC_BIG_KATS"))
        GTEST_SKIP() << "set ULECC_BIG_KATS=1 to hash 512 MiB";
    Sha256 ctx;
    std::vector<uint8_t> chunk(1u << 20);
    const uint64_t total = (512ull << 20) + 7;
    uint64_t off = 0;
    while (off < total) {
        size_t m = static_cast<size_t>(
            std::min<uint64_t>(chunk.size(), total - off));
        for (size_t j = 0; j < m; ++j)
            chunk[j] = static_cast<uint8_t>((off + j) * 131 + 17);
        ctx.update(std::string_view(
            reinterpret_cast<const char *>(chunk.data()), m));
        off += m;
    }
    EXPECT_EQ(digestHex(ctx.final()),
              "e36b16011f1a8ad47b3c8759412ad1b1"
              "7401e22c93fc77a980f021dd5628c728");
}

TEST(Hmac, Rfc4231Vector1)
{
    std::vector<uint8_t> key(20, 0x0b);
    std::string data = "Hi There";
    Sha256Digest mac = hmacSha256(
        key.data(), key.size(),
        reinterpret_cast<const uint8_t *>(data.data()), data.size());
    EXPECT_EQ(digestHex(mac),
              "b0344c61d8db38535ca8afceaf0bf12b"
              "881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Vector2)
{
    std::string key = "Jefe";
    std::string data = "what do ya want for nothing?";
    Sha256Digest mac = hmacSha256(
        reinterpret_cast<const uint8_t *>(key.data()), key.size(),
        reinterpret_cast<const uint8_t *>(data.data()), data.size());
    EXPECT_EQ(digestHex(mac),
              "5bdcc146bf60754e6a042426089575c7"
              "5a003f089d2739839dec58b964ec3843");
}

TEST(Bytes, RoundTrip)
{
    Rng rng(0xb1e5);
    for (int i = 0; i < 50; ++i) {
        MpUint v = rng.mp(1 + static_cast<int>(rng.below(250)));
        int len = (v.bitLength() + 7) / 8 + static_cast<int>(rng.below(4));
        auto bytes = toBytesBe(v, len);
        EXPECT_EQ(fromBytesBe(bytes.data(), bytes.size()), v);
    }
}

TEST(Rfc6979, P256SampleVector)
{
    // RFC 6979 A.2.5, P-256 + SHA-256, message "sample".
    const Curve &c = standardCurve(CurveId::P256);
    MpUint x = MpUint::fromHex(
        "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721");
    Sha256Digest h = sha256("sample");
    MpUint k = rfc6979Nonce(x, h, c.order());
    EXPECT_EQ(k.toHex(),
              "a6e3c57dd01abe90086538398355dd4c"
              "3b17aa873382b0f24d6129493d8aad60");
    Ecdsa ecdsa(c);
    Signature sig = ecdsa.signDigest(x, h);
    EXPECT_EQ(sig.r.toHex(),
              "efd48b2aacb6a8fd1140dd9cd45e81d6"
              "9d2c877b56aaf991c34d0ea84eaf3716");
    EXPECT_EQ(sig.s.toHex(),
              "f7cb1c942d657c41d436c7a1b6e29f65"
              "f3e900dbb9aff4064dc4ab2f843acda8");
    // And it verifies.
    KeyPair kp = ecdsa.keyFromPrivate(x);
    EXPECT_TRUE(ecdsa.verifyDigest(kp.q, h, sig));
}

TEST(Rfc6979, P192SampleAndTestVectors)
{
    // RFC 6979 A.2.3, P-192 + SHA-256.  These pin bits2int for a
    // curve whose order is *shorter* than the digest: the low 64
    // digest bits must be truncated away before reduction.
    const Curve &c = standardCurve(CurveId::P192);
    MpUint x = MpUint::fromHex(
        "6fab034934e4c0fc9ae67f5b5659a9d7d1fefd187ee09fd4");
    Ecdsa ecdsa(c);
    KeyPair kp = ecdsa.keyFromPrivate(x);

    Sha256Digest h = sha256("sample");
    EXPECT_EQ(rfc6979Nonce(x, h, c.order()).toHex(),
              "32b1b6d7d42a05cb449065727a84804fb1a3e34d8f261496");
    Signature sig = ecdsa.signDigest(x, h);
    EXPECT_EQ(sig.r.toHex(),
              "4b0b8ce98a92866a2820e20aa6b75b56382e0f9bfd5ecb55");
    EXPECT_EQ(sig.s.toHex(),
              "ccdb006926ea9565cbadc840829d8c384e06de1f1e381b85");
    EXPECT_TRUE(ecdsa.verifyDigest(kp.q, h, sig));

    h = sha256("test");
    EXPECT_EQ(rfc6979Nonce(x, h, c.order()).toHex(),
              "5c4ce89cf56d9e7c77c8585339b006b97b5f0680b4306c6c");
    sig = ecdsa.signDigest(x, h);
    EXPECT_EQ(sig.r.toHex(),
              "3a718bd8b4926c3b52ee6bbe67ef79b18cb6eb62b1ad97ae");
    EXPECT_EQ(sig.s.toHex(),
              "5662e6848a4a19b1f1ae2f72acd4b8bbe50f1eac65d9124f");
    EXPECT_TRUE(ecdsa.verifyDigest(kp.q, h, sig));
}

TEST(Rfc6979, P224SampleAndTestVectors)
{
    // RFC 6979 A.2.4, P-224 + SHA-256 (qlen 224 < 256, so bits2int
    // drops the low 32 digest bits).
    const Curve &c = standardCurve(CurveId::P224);
    MpUint x = MpUint::fromHex(
        "f220266e1105bfe3083e03ec7a3a654651f45e37167e88600bf257c1");
    Ecdsa ecdsa(c);
    KeyPair kp = ecdsa.keyFromPrivate(x);

    Sha256Digest h = sha256("sample");
    EXPECT_EQ(rfc6979Nonce(x, h, c.order()).toHex(),
              "ad3029e0278f80643de33917ce6908c70a8ff50a411f06e41dedfcdc");
    Signature sig = ecdsa.signDigest(x, h);
    EXPECT_EQ(sig.r.toHex(),
              "61aa3da010e8e8406c656bc477a7a7189895e7e840cdfe8ff42307ba");
    EXPECT_EQ(sig.s.toHex(),
              "bc814050dab5d23770879494f9e0a680dc1af7161991bde692b10101");
    EXPECT_TRUE(ecdsa.verifyDigest(kp.q, h, sig));

    h = sha256("test");
    EXPECT_EQ(rfc6979Nonce(x, h, c.order()).toHex(),
              "ff86f57924da248d6e44e8154eb69f0ae2aebaee9931d0b5a969f904");
    sig = ecdsa.signDigest(x, h);
    EXPECT_EQ(sig.r.toHex(),
              "ad04dde87b84747a243a631ea47a1ba6d1faa059149ad2440de6fba6");
    EXPECT_EQ(sig.s.toHex(),
              "178d49b1ae90e3d8b629be3db5683915f4e8c99fdf6e666cf37adcfd");
    EXPECT_TRUE(ecdsa.verifyDigest(kp.q, h, sig));
}

namespace
{

class EcdsaCurves : public ::testing::TestWithParam<CurveId>
{
};

} // namespace

TEST_P(EcdsaCurves, SignVerifyRoundTrip)
{
    const Curve &c = standardCurve(GetParam());
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    Ecdsa ecdsa(c);
    Rng rng(0xec05a + static_cast<int>(GetParam()));
    MpUint d = rng.mpBelow(c.order());
    if (d.isZero())
        d = MpUint(1);
    KeyPair kp = ecdsa.keyFromPrivate(d);
    EXPECT_TRUE(c.onCurve(kp.q));

    Signature sig = ecdsa.sign(d, "the paper's benchmark message");
    EXPECT_TRUE(ecdsa.verify(kp.q, "the paper's benchmark message", sig));
    // Wrong message rejected.
    EXPECT_FALSE(ecdsa.verify(kp.q, "a different message", sig));
}

TEST_P(EcdsaCurves, TamperedSignatureRejected)
{
    const Curve &c = standardCurve(GetParam());
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    Ecdsa ecdsa(c);
    Rng rng(0x7a3 + static_cast<int>(GetParam()));
    MpUint d = rng.mpBelow(c.order());
    if (d.isZero())
        d = MpUint(2);
    KeyPair kp = ecdsa.keyFromPrivate(d);
    Sha256Digest h = sha256("message");
    Signature sig = ecdsa.signDigest(d, h);
    ASSERT_TRUE(ecdsa.verifyDigest(kp.q, h, sig));

    Signature bad = sig;
    bad.r = bad.r.bitXor(MpUint(1));
    EXPECT_FALSE(ecdsa.verifyDigest(kp.q, h, bad));
    bad = sig;
    bad.s = bad.s.bitXor(MpUint(4));
    EXPECT_FALSE(ecdsa.verifyDigest(kp.q, h, bad));
    // Out-of-range components rejected.
    bad = sig;
    bad.r = c.order();
    EXPECT_FALSE(ecdsa.verifyDigest(kp.q, h, bad));
    bad.r = MpUint(0);
    EXPECT_FALSE(ecdsa.verifyDigest(kp.q, h, bad));
    // Wrong public key rejected.
    KeyPair other = ecdsa.keyFromPrivate(d.add(MpUint(1)));
    EXPECT_FALSE(ecdsa.verifyDigest(other.q, h, sig));
}

TEST_P(EcdsaCurves, DeterministicNonceIsStable)
{
    const Curve &c = standardCurve(GetParam());
    if (c.synthetic())
        GTEST_SKIP() << "synthetic parameters";
    Ecdsa ecdsa(c);
    MpUint d(0x1234567);
    Sha256Digest h = sha256("stable");
    Signature s1 = ecdsa.signDigest(d, h);
    Signature s2 = ecdsa.signDigest(d, h);
    EXPECT_EQ(s1.r, s2.r);
    EXPECT_EQ(s1.s, s2.s);
    // Different message -> different nonce -> different r.
    Signature s3 = ecdsa.signDigest(d, sha256("other"));
    EXPECT_NE(s1.r, s3.r);
}

INSTANTIATE_TEST_SUITE_P(All, EcdsaCurves,
    ::testing::Values(CurveId::P192, CurveId::P224, CurveId::P256,
                      CurveId::P384, CurveId::P521, CurveId::B163,
                      CurveId::B233, CurveId::B283),
    [](const ::testing::TestParamInfo<CurveId> &info) {
        std::string n = curveIdName(info.param);
        n.erase(std::remove(n.begin(), n.end(), '-'), n.end());
        return n;
    });

TEST(EcdsaToy, FullProtocolOnExhaustivelyVerifiedCurves)
{
    // End-to-end ECDSA on curves whose group order was computed by
    // exhaustive point counting -- no trusted constants anywhere.
    auto prime = makeToyPrimeCurve();
    auto binary = makeToyBinaryCurve();
    for (const Curve *c : {static_cast<const Curve *>(prime.get()),
                           static_cast<const Curve *>(binary.get())}) {
        Ecdsa ecdsa(*c);
        Rng rng(0x70f);
        for (int i = 0; i < 10; ++i) {
            MpUint d = rng.mpBelow(c->order());
            if (d.isZero())
                continue;
            KeyPair kp = ecdsa.keyFromPrivate(d);
            std::string msg = "toy message " + std::to_string(i);
            Signature sig = ecdsa.sign(d, msg);
            EXPECT_TRUE(ecdsa.verify(kp.q, msg, sig)) << c->name();
            EXPECT_FALSE(ecdsa.verify(kp.q, msg + "!", sig)) << c->name();
        }
    }
}
