/**
 * @file
 * fault-campaign: deterministic fault-injection campaigns across the
 * sim/crypto stack.
 *
 * Usage:
 *   fault_campaign [--seed N] [--campaigns N] [--verbose]
 *
 * Each campaign injects exactly one fault into either
 *
 *  - a simulated field kernel on Pete (register/memory/Hi-Lo bit
 *    flips, program-line corruption, stall storms, cycle-budget
 *    runaways), comparing the result against a golden fault-free run
 *    of the same kernel (fault/strikeKernel, shared with svc chaos
 *    mode); or
 *
 *  - a cryptographic entry point (corrupted public key, corrupted
 *    signature, out-of-range scalar, glitched-sign emulation,
 *    oversized octet string, corrupted ECDH peer), exercising the
 *    point/range validation and verify-after-sign countermeasures.
 *
 * Every outcome is classified:
 *
 *   detected           -- a structured error or a countermeasure
 *                         caught the fault (timeout, mem-fault,
 *                         illegal instruction, validation reject,
 *                         verification failure);
 *   silently_corrupted -- the run completed "successfully" with a
 *                         wrong result: the dangerous case the
 *                         countermeasures exist to shrink;
 *   masked             -- the fault landed in dead state; the output
 *                         is bit-identical to golden;
 *   crashed            -- an unstructured exception escaped the stack
 *                         (caught here so the process never aborts).
 *
 * The run is fully deterministic in --seed: no wall clock, no
 * platform randomness.  --seed (0x-hex allowed) and --campaigns are
 * parsed strictly, up to 2^63 - 1; bad input exits 2.  The summary is
 * printed as JSON on stdout (the "ulecc.fault_campaign.v1" schema from
 * fault/campaign_summary).
 */

#include <cstdio>
#include <cstring>
#include <string>

#include "ecdsa/ecdh.hh"
#include "ecdsa/ecdsa.hh"
#include "fault/campaign_summary.hh"
#include "fault/fault_injector.hh"
#include "flag_parse.hh"

using namespace ulecc;

namespace
{

constexpr CampaignOutcome Detected = CampaignOutcome::Detected;
constexpr CampaignOutcome SilentlyCorrupted =
    CampaignOutcome::SilentlyCorrupted;
constexpr CampaignOutcome Crashed = CampaignOutcome::Crashed;

struct CampaignResult
{
    std::string kind;
    CampaignOutcome outcome = Crashed;
    std::string detail;
};

/** Every field kernel, at k = 6. */
constexpr AsmKernel kVictims[] = {
    AsmKernel::MpAdd,  AsmKernel::MulOs,   AsmKernel::MulPsMaddu,
    AsmKernel::MulGf2, AsmKernel::RedP192,
};

CampaignResult
simCampaign(SplitMix64 &rng)
{
    KernelStrike strike = strikeKernel(kVictims, rng);
    CampaignResult res;
    res.kind = strike.kind;
    res.outcome = strike.outcome;
    if (strike.outcome == Crashed) {
        res.detail = strike.error.message();
        return res;
    }
    res.detail = strike.spec.describe();
    if (strike.outcome == Detected)
        res.detail += " -> " + strike.error.message();
    return res;
}

CampaignResult
cryptoCampaign(SplitMix64 &rng)
{
    const Curve &curve = standardCurve(CurveId::P192);
    Ecdsa ecdsa(curve);
    Ecdh ecdh(curve);
    const MpUint &n = curve.order();

    MpUint d = randomLimbs(rng, 6).mod(n);
    if (d.isZero())
        d = MpUint(1);
    Sha256Digest digest{};
    for (size_t i = 0; i < digest.size(); ++i)
        digest[i] = static_cast<uint8_t>(rng.next());

    CampaignResult res;
    int scenario = static_cast<int>(rng.below(6));
    switch (scenario) {
      case 0: {
        // Bit-flipped public point must be rejected before use.
        res.kind = "crypto-corrupt-pubkey";
        KeyPair kp = ecdsa.keyFromPrivate(d);
        Signature sig = ecdsa.signDigest(d, digest);
        AffinePoint bad = kp.q;
        uint32_t bit = 1u << rng.below(32);
        int limb = static_cast<int>(rng.below(6));
        bad.y.setLimb(limb, bad.y.limb(limb) ^ bit);
        Result<bool> v = ecdsa.verifyDigestChecked(bad, digest, sig);
        if (!v.ok()) {
            res.outcome = Detected;
            res.detail = v.error().message();
        } else {
            res.outcome = v.value() ? SilentlyCorrupted : Detected;
            res.detail = "off-curve point slipped through validation";
        }
        break;
      }
      case 1: {
        // Bit-flipped signature must fail verification.
        res.kind = "crypto-corrupt-signature";
        KeyPair kp = ecdsa.keyFromPrivate(d);
        Signature sig = ecdsa.signDigest(d, digest);
        int bit = static_cast<int>(rng.below(192));
        Signature bad = sig;
        if (rng.below(2))
            bad.r = bad.r.bitXor(MpUint::powerOfTwo(bit));
        else
            bad.s = bad.s.bitXor(MpUint::powerOfTwo(bit));
        Result<bool> v = ecdsa.verifyDigestChecked(kp.q, digest, bad);
        if (!v.ok() || !v.value()) {
            res.outcome = Detected;
            res.detail = "corrupted signature rejected";
        } else {
            res.outcome = SilentlyCorrupted;
            res.detail = "corrupted signature verified";
        }
        break;
      }
      case 2: {
        // Out-of-range private scalar is invalid input, not a crash.
        res.kind = "crypto-scalar-range";
        MpUint bad = rng.below(2) ? n.add(d) : MpUint();
        Result<Signature> s = ecdsa.signDigestChecked(bad, digest);
        res.outcome = (!s.ok() && s.code() == Errc::InvalidInput)
            ? Detected : SilentlyCorrupted;
        res.detail = s.ok() ? "out-of-range scalar accepted"
                            : s.error().message();
        break;
      }
      case 3: {
        // Emulated glitched signer: verify-after-sign must withhold a
        // corrupted signature.
        res.kind = "crypto-glitched-sign";
        KeyPair kp = ecdsa.keyFromPrivate(d);
        Signature sig = ecdsa.signDigest(d, digest);
        Signature glitched = sig;
        glitched.s =
            glitched.s.bitXor(MpUint::powerOfTwo(
                static_cast<int>(rng.below(160))));
        // The verify-after-sign countermeasure from
        // signDigestChecked, applied to the glitched result.
        bool ok = ecdsa.verifyDigest(kp.q, digest, glitched);
        res.outcome = ok ? SilentlyCorrupted : Detected;
        res.detail = ok ? "glitched signature released"
                        : "verify-after-sign withheld the signature";
        break;
      }
      case 4: {
        // Octet-string length beyond the limb capacity.
        res.kind = "crypto-oversized-octets";
        int len = MpUint::maxLimbs * 4 + 1
            + static_cast<int>(rng.below(4096));
        Result<std::vector<uint8_t>> r = toBytesBeChecked(d, len);
        res.outcome = (!r.ok() && r.code() == Errc::OutOfRange)
            ? Detected : SilentlyCorrupted;
        res.detail = r.ok() ? "oversized encoding accepted"
                            : r.error().message();
        break;
      }
      case 5:
      default: {
        // Corrupted ECDH peer point must fail validation.
        res.kind = "crypto-corrupt-ecdh-peer";
        AffinePoint peer = ecdh.publicPoint(d);
        uint32_t bit = 1u << rng.below(32);
        int limb = static_cast<int>(rng.below(6));
        peer.x.setLimb(limb, peer.x.limb(limb) ^ bit);
        MpUint d2 = randomLimbs(rng, 6).mod(n);
        if (d2.isZero())
            d2 = MpUint(2);
        Result<EcdhShared> r = ecdh.agreeChecked(d2, peer);
        if (!r.ok()) {
            res.outcome = Detected;
            res.detail = r.error().message();
        } else {
            res.outcome = SilentlyCorrupted;
            res.detail = "corrupted peer point accepted";
        }
        break;
      }
    }
    return res;
}

constexpr const char *kTool = "fault_campaign";

int
usage()
{
    std::fprintf(stderr,
                 "usage: fault_campaign [--seed N] [--campaigns N] "
                 "[--verbose]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    uint64_t seed = 1;
    uint64_t campaigns = 100;
    bool verbose = false;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        // The summary reports seed and count as exact JSON integers,
        // so neither may exceed INT64_MAX.
        auto count = [&](uint64_t min, uint64_t &out) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: [%s] %s requires a value\n",
                             kTool, errcName(Errc::InvalidInput), flag);
                return false;
            }
            return parseCount(kTool, flag, argv[++i], 0, min, INT64_MAX,
                              out);
        };
        bool ok = true;
        if (!std::strcmp(flag, "--seed")) {
            ok = count(0, seed);
        } else if (!std::strcmp(flag, "--campaigns")) {
            ok = count(1, campaigns);
        } else if (!std::strcmp(flag, "--verbose")) {
            verbose = true;
        } else {
            ok = false;
        }
        if (!ok)
            return usage();
    }

    CampaignSummary summary(seed, campaigns);
    SplitMix64 master(seed);

    for (uint64_t i = 0; i < campaigns; ++i) {
        SplitMix64 rng(master.next());
        CampaignResult res;
        try {
            // ~70% simulator strikes, ~30% crypto-boundary strikes.
            if (rng.below(10) < 7)
                res = simCampaign(rng);
            else
                res = cryptoCampaign(rng);
        } catch (const std::exception &e) {
            // A fault escaped the structured taxonomy: that is itself
            // a campaign finding, never a process abort.
            res.kind = res.kind.empty() ? "unclassified" : res.kind;
            res.outcome = Crashed;
            res.detail = e.what();
        } catch (...) {
            res.kind = "unclassified";
            res.outcome = Crashed;
            res.detail = "non-standard exception";
        }
        summary.record(res.kind, res.outcome);
        if (verbose) {
            std::fprintf(stderr, "campaign %3lu: %-22s %-18s %s\n",
                         static_cast<unsigned long>(i),
                         res.kind.c_str(),
                         campaignOutcomeName(res.outcome),
                         res.detail.c_str());
        }
    }

    std::printf("%s\n", summary.toJson().dump(2).c_str());

    // Crashed campaigns indicate taxonomy gaps; surface via exit code
    // without aborting.
    return summary.count(Crashed) ? 4 : 0;
}
