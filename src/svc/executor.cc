/**
 * @file
 * The svc host executor (see executor.hh).
 */

#include "svc/executor.hh"

#include <atomic>
#include <functional>

#include "ecdsa/ecdh.hh"
#include "ecdsa/ecdsa.hh"
#include "svc/service.hh"
#include "svc/session.hh"
#include "workload/kernel_model.hh"

namespace ulecc
{

/** Everything bound to one curve of the traffic mix. */
struct CurveCtx
{
    const Curve &curve;
    Ecdsa ecdsa;
    Ecdh ecdh;
    KeyPair serverKey;
    std::vector<MicroArch> archs; ///< archs that model this curve

    explicit CurveCtx(const Curve &c) : curve(c), ecdsa(c), ecdh(c) {}
};

namespace
{

constexpr MicroArch kAllArchs[] = {
    MicroArch::Baseline, MicroArch::IsaExt, MicroArch::IsaExtIcache,
    MicroArch::Monte, MicroArch::Billie,
};

void
normalPath(const CurveCtx &ctx, const Session &s, const Request &req,
           ExecOutcome &out)
{
    switch (req.op) {
      case OpKind::Sign: {
        Result<Signature> r =
            ctx.ecdsa.signDigestChecked(s.key.d, s.key.q, s.digest);
        if (!r.ok())
            out.errc = r.error().code;
        break;
      }
      case OpKind::Verify: {
        Result<bool> v = ctx.ecdsa.verifyDigestChecked(
            s.key.q, s.digest, s.goldenSig);
        if (!v.ok())
            out.errc = v.error().code;
        else if (!v.value())
            out.wrongAnswer = true; // golden signature must verify
        break;
      }
      case OpKind::Ecdh: {
        Result<EcdhShared> a =
            ctx.ecdh.agreeChecked(s.key.d, ctx.serverKey.q);
        if (!a.ok()) {
            out.errc = a.error().code;
            break;
        }
        Result<EcdhShared> b =
            ctx.ecdh.agreeChecked(ctx.serverKey.d, s.key.q);
        if (!b.ok()) {
            out.errc = b.error().code;
            break;
        }
        // Both sides must derive the same session key.
        if (!a.value().valid || !b.value().valid
            || a.value().sessionKey != b.value().sessionKey)
            out.wrongAnswer = true;
        break;
      }
    }
}

void
chaosPath(const CurveCtx &ctx, const Session &s, const Request &req,
          SplitMix64 &rng, ExecOutcome &out)
{
    uint64_t pick = rng.below(4);
    if (pick < 2) {
        SimStrikeResult sr =
            pick == 0 ? chaosSimStrike(rng) : chaosBudgetStrike(rng);
        out.errc = sr.errc;
        out.chaos = sr.cls;
        out.chaosKind = sr.kind;
        // A masked strike left the device unharmed: the request's
        // real answer is still produced.
        if (sr.cls == ChaosClass::Masked)
            normalPath(ctx, s, req, out);
        return;
    }
    switch (req.op) {
      case OpKind::Sign: {
        if (rng.below(2) == 0) {
            // Emulated glitched signer: a corrupted signature must
            // be withheld by verify-after-sign.
            out.chaosKind = "crypto-glitched-sign";
            Signature glitched = s.goldenSig;
            int bit = static_cast<int>(rng.below(curveIdBits(req.curve)));
            glitched.s = glitched.s.bitXor(MpUint::powerOfTwo(bit));
            bool ok = ctx.ecdsa.verifyDigest(s.key.q, s.digest, glitched);
            if (ok) {
                out.wrongAnswer = true;
                out.chaos = ChaosClass::SilentCaught;
            } else {
                out.errc = Errc::FaultDetected;
                out.chaos = ChaosClass::Detected;
            }
        } else {
            // Glitched scalar: out-of-range d must be rejected.
            out.chaosKind = "crypto-scalar-range";
            MpUint bad = ctx.curve.order().add(s.key.d);
            Result<Signature> r =
                ctx.ecdsa.signDigestChecked(bad, s.key.q, s.digest);
            if (!r.ok()) {
                out.errc = r.error().code;
                out.chaos = ChaosClass::Detected;
            } else {
                out.wrongAnswer = true;
                out.chaos = ChaosClass::SilentCaught;
            }
        }
        break;
      }
      case OpKind::Verify: {
        // Bit-flipped signature must fail verification -- a *false*
        // verdict is the correct result here.
        out.chaosKind = "crypto-corrupt-signature";
        Signature bad = s.goldenSig;
        int bit = static_cast<int>(rng.below(curveIdBits(req.curve)));
        if (rng.below(2))
            bad.r = bad.r.bitXor(MpUint::powerOfTwo(bit));
        else
            bad.s = bad.s.bitXor(MpUint::powerOfTwo(bit));
        Result<bool> v =
            ctx.ecdsa.verifyDigestChecked(s.key.q, s.digest, bad);
        if (!v.ok() || !v.value()) {
            out.chaos = ChaosClass::Detected;
        } else {
            out.wrongAnswer = true;
            out.chaos = ChaosClass::SilentCaught;
        }
        break;
      }
      case OpKind::Ecdh: {
        // Bit-flipped peer point must fail validation.
        out.chaosKind = "crypto-corrupt-ecdh-peer";
        AffinePoint bad = ctx.serverKey.q;
        uint32_t bit = 1u << rng.below(32);
        int limb = static_cast<int>(
            rng.below((curveIdBits(req.curve) + 31) / 32));
        bad.y.setLimb(limb, bad.y.limb(limb) ^ bit);
        Result<EcdhShared> r = ctx.ecdh.agreeChecked(s.key.d, bad);
        if (!r.ok()) {
            out.errc = r.error().code;
            out.chaos = ChaosClass::Detected;
        } else {
            out.wrongAnswer = true;
            out.chaos = ChaosClass::SilentCaught;
        }
        break;
      }
    }
}

/**
 * Shared state of one pass's real execution: member outcomes land in
 * pre-sized slots, the last finisher fulfils the promise.  The
 * completion counter's acq_rel ordering makes every slot write
 * visible to whoever observes the count hit zero.
 */
struct BatchTaskState
{
    std::vector<Request> reqs;
    std::vector<ExecOutcome> outcomes;
    std::atomic<size_t> remaining{0};
    std::atomic<bool> anchorMismatch{false};
    std::promise<BatchExecResult> promise;

    void
    finishOne()
    {
        if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            BatchExecResult res;
            res.outcomes = std::move(outcomes);
            res.anchorMismatch =
                anchorMismatch.load(std::memory_order_acquire);
            promise.set_value(std::move(res));
        }
    }
};

} // namespace

Executor::Executor(const SvcConfig &config)
    : seed_(config.seed), chaosPercent_(config.chaos.percent),
      jobs_(config.jobs), serial_(config.serial),
      sessions_(std::make_unique<SessionCache>(config.seed))
{
    for (CurveId id : config.curves) {
        if (curves_.count(id))
            continue;
        auto ctx = std::make_unique<CurveCtx>(standardCurve(id));
        for (MicroArch arch : kAllArchs) {
            if (archSupportsCurve(arch, id))
                ctx->archs.push_back(arch);
        }
        // Server-side key: the peer every ECDH request agrees with.
        const MpUint &n = ctx->curve.order();
        SplitMix64 rng(splitmix64Mix(seed_, 0xC0FFEEull,
                                     static_cast<uint64_t>(id) + 1));
        MpUint d;
        int limbs = (curveIdBits(id) + 31) / 32;
        for (int i = 0; i < limbs; ++i)
            d.setLimb(i, static_cast<uint32_t>(rng.next()));
        d = d.mod(n);
        if (d.isZero())
            d = MpUint(2);
        ctx->serverKey = ctx->ecdsa.keyFromPrivate(d);
        curves_.emplace(id, std::move(ctx));
    }
}

Executor::~Executor() = default;

const std::vector<MicroArch> &
Executor::archs(CurveId curve) const
{
    return curves_.at(curve)->archs;
}

uint64_t
Executor::sessionDerivations() const
{
    return sessions_->derivations();
}

uint64_t
Executor::sessionHits() const
{
    return sessions_->hits();
}

void
Executor::start()
{
    if (!serial_)
        pool_.emplace(jobs_);
}

void
Executor::drain()
{
    if (pool_) {
        pool_->wait();
        pool_.reset();
    }
}

ExecOutcome
Executor::execMember(const Request &req)
{
    ExecOutcome out;
    try {
        SplitMix64 rng(splitmix64Mix(seed_, req.id + 1, req.attempt));
        const CurveCtx &ctx = *curves_.at(req.curve);
        Session s = sessions_->get(ctx.ecdsa, req.curve, req.userId);
        bool struck =
            chaosPercent_ != 0 && rng.below(100) < chaosPercent_;
        if (struck)
            chaosPath(ctx, s, req, rng, out);
        else
            normalPath(ctx, s, req, out);
    } catch (const UleccError &e) {
        out.errc = e.code();
    } catch (...) {
        out.errc = Errc::Internal;
        out.unstructured = true;
    }
    // The silent-corruption countermeasure: an oracle mismatch
    // without a structured error becomes one, so no request ever
    // returns a wrong answer marked "ok".
    if (out.wrongAnswer && out.errc == Errc::Ok)
        out.errc = Errc::FaultDetected;
    return out;
}

std::future<BatchExecResult>
Executor::launch(std::vector<Request> reqs, ServiceTier tier,
                 uint64_t batchId)
{
    bool fullSim = tier == ServiceTier::FullSim;
    uint64_t anchorSeed = splitmix64Mix(seed_, 0xBA7C4ull, batchId + 1);

    auto state = std::make_shared<BatchTaskState>();
    state->reqs = std::move(reqs);
    size_t n = state->reqs.size();
    state->outcomes.resize(n);
    state->remaining.store(n + (fullSim ? 1 : 0),
                           std::memory_order_relaxed);
    std::future<BatchExecResult> result = state->promise.get_future();

    // A serial run executes each task inline, in launch order.
    auto run = [this](std::function<void()> task) {
        if (pool_)
            pool_->submit(std::move(task));
        else
            task();
    };
    if (fullSim) {
        run([anchorSeed, state] {
            SplitMix64 rng(anchorSeed);
            bool mismatch = false;
            chaosCosim(rng, &mismatch);
            if (mismatch)
                state->anchorMismatch.store(true,
                                            std::memory_order_release);
            state->finishOne();
        });
    }
    for (size_t i = 0; i < n; ++i) {
        run([this, state, i] {
            state->outcomes[i] = execMember(state->reqs[i]);
            state->finishOne();
        });
    }
    return result;
}

} // namespace ulecc
