/**
 * @file
 * svc-run: the crypto-as-a-service robustness campaign driver.
 *
 * Usage:
 *   svc_run [--seed N] [--requests N] [--users N] [--workers N]
 *           [--jobs N] [--serial] [--queue-cap N]
 *           [--arrival poisson|bursty|closed-loop] [--rate R]
 *           [--clients N] [--think-ms MS] [--diurnal] [--day-ms MS]
 *           [--diurnal-amp A] [--diurnal-steps N] [--chaos PCT]
 *           [--deadline-factor F] [--deadline-floor-ms MS]
 *           [--retries N] [--no-batch] [--batch-max N]
 *           [--batch-linger-us US] [--batch-slack S]
 *           [--batch-setup F] [--json PATH] [--quiet]
 *           [--trace-requests PATH] [--timeline PATH]
 *           [--window-ms MS] [--slo PATH] [--flight-recorder PATH]
 *
 * Drives a synthetic sign/verify/ECDH request population through the
 * service engine (src/svc) and prints the robustness summary: shed,
 * expired, retried, degraded and chaos-struck request counts, latency
 * percentiles in virtual time, and energy per request.  The JSON
 * report ("ulecc.svc.v1") is timing-free and byte-identical for the
 * same seed across runs and across --serial/parallel execution --
 * the determinism tests pin exactly that.
 *
 * Telemetry artifacts (svc/telemetry.hh), all deterministic in the
 * same sense as the report:
 *   --trace-requests   Chrome-trace request lifecycle spans
 *   --timeline         ulecc.svc.timeline.v1 JSONL time-series
 *   --window-ms        timeline window width (virtual ms, default 50)
 *   --slo              ulecc.svc.slo.v1 burn-rate alert log + verdict
 *   --flight-recorder  ulecc.svc.flight.v1 last-N request ring dump
 *
 * Every numeric flag is parsed strictly (tools/flag_parse.hh): a
 * malformed, signed, overflowing, non-finite or out-of-range value is
 * rejected with an [invalid-input] message.
 *
 * Exit codes: 0 success; 1 a robustness invariant failed (a request
 * was lost, a wrong answer escaped, an unstructured exception was
 * caught, or --slo found a budget breach with no alert fired); 2
 * usage or I/O error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <type_traits>

#include "core/report.hh"
#include "obs/metrics.hh"
#include "par/thread_pool.hh"
#include "svc/service.hh"
#include "svc/telemetry.hh"

#include "flag_parse.hh"

using namespace ulecc;

namespace
{

constexpr const char *kTool = "svc_run";

/**
 * Campaign size cap: arrivals are generated up front, so memory grows
 * with the campaign, not with the requests in flight.
 */
constexpr uint64_t kMaxRequests = 10'000'000;

/** Cap on the virtual-time flags (1e12 ms is ~31 virtual years). */
constexpr double kMaxTime = 1e12;

void
usage()
{
    std::fprintf(
        stderr,
        "usage: svc_run [--seed N] [--requests N] [--users N]\n"
        "               [--workers N] [--jobs N] [--serial] [--queue-cap N]\n"
        "               [--arrival poisson|bursty|closed-loop]\n"
        "               [--rate R] [--clients N] [--think-ms MS]\n"
        "               [--diurnal] [--day-ms MS] [--diurnal-amp A]\n"
        "               [--diurnal-steps N] [--chaos PCT]\n"
        "               [--deadline-factor F] [--deadline-floor-ms MS]\n"
        "               [--retries N] [--no-batch] [--batch-max N]\n"
        "               [--batch-linger-us US] [--batch-slack S]\n"
        "               [--batch-setup F] [--json PATH] [--quiet]\n"
        "               [--trace-requests PATH]\n"
        "               [--timeline PATH] [--window-ms MS]\n"
        "               [--slo PATH] [--flight-recorder PATH]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    SvcConfig cfg;
    std::string jsonPath;
    std::string tracePath;
    std::string timelinePath;
    std::string sloPath;
    std::string flightPath;
    uint64_t windowMs = 50;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        const char *flag = argv[i];
        bool valued = i + 1 < argc;
        // Strict numeric parses into a flag's range; false = reject.
        auto count = [&](uint64_t min, uint64_t max, auto &out) {
            uint64_t v = 0;
            if (!parseCount(kTool, flag, argv[++i], 0, min, max, v))
                return false;
            out = static_cast<std::remove_reference_t<decltype(out)>>(v);
            return true;
        };
        auto real = [&](double min, double max, double &out) {
            return parseReal(kTool, flag, argv[++i], min, max, out);
        };
        // A virtual duration in units of @p ns nanoseconds.
        auto duration = [&](double ns, uint64_t &out) {
            double v = 0;
            if (!parseReal(kTool, flag, argv[++i], 0, kMaxTime, v))
                return false;
            out = static_cast<uint64_t>(v * ns);
            return true;
        };
        bool ok = true;
        if (!std::strcmp(flag, "--seed") && valued) {
            ok = count(0, UINT64_MAX, cfg.seed);
        } else if (!std::strcmp(flag, "--requests") && valued) {
            ok = count(1, kMaxRequests, cfg.requests);
        } else if (!std::strcmp(flag, "--users") && valued) {
            ok = count(1, UINT64_MAX, cfg.users);
        } else if (!std::strcmp(flag, "--workers") && valued) {
            ok = count(1, 1u << 16, cfg.virtualWorkers);
        } else if (!std::strcmp(flag, "--jobs") && valued) {
            ok = count(0, ThreadPool::maxThreads, cfg.jobs);
        } else if (!std::strcmp(flag, "--serial")) {
            cfg.serial = true;
        } else if (!std::strcmp(flag, "--queue-cap") && valued) {
            ok = count(0, SIZE_MAX, cfg.queueCap);
        } else if (!std::strcmp(flag, "--arrival") && valued) {
            const char *kind = argv[++i];
            if (!std::strcmp(kind, "poisson")) {
                cfg.arrivals.kind = ArrivalKind::Poisson;
            } else if (!std::strcmp(kind, "bursty")) {
                cfg.arrivals.kind = ArrivalKind::Bursty;
            } else if (!std::strcmp(kind, "closed-loop")) {
                cfg.arrivals.kind = ArrivalKind::ClosedLoop;
            } else {
                usage();
                return 2;
            }
        } else if (!std::strcmp(flag, "--rate") && valued) {
            ok = real(1e-3, 1e9, cfg.arrivals.ratePerSec);
        } else if (!std::strcmp(flag, "--clients") && valued) {
            ok = count(1, UINT32_MAX, cfg.arrivals.clients);
        } else if (!std::strcmp(flag, "--think-ms") && valued) {
            ok = duration(1e6, cfg.arrivals.thinkNs);
        } else if (!std::strcmp(flag, "--diurnal")) {
            cfg.arrivals.diurnal = true;
        } else if (!std::strcmp(flag, "--day-ms") && valued) {
            ok = duration(1e6, cfg.arrivals.dayNs);
        } else if (!std::strcmp(flag, "--diurnal-amp") && valued) {
            ok = real(0, 0.95, cfg.arrivals.diurnalAmp);
        } else if (!std::strcmp(flag, "--diurnal-steps") && valued) {
            ok = count(1, UINT32_MAX, cfg.arrivals.diurnalSteps);
        } else if (!std::strcmp(flag, "--no-batch")) {
            cfg.batch.enabled = false;
        } else if (!std::strcmp(flag, "--batch-max") && valued) {
            ok = count(1, UINT32_MAX, cfg.batch.maxSize);
        } else if (!std::strcmp(flag, "--batch-linger-us") && valued) {
            ok = duration(1e3, cfg.batch.lingerNs);
        } else if (!std::strcmp(flag, "--batch-slack") && valued) {
            ok = real(0, kMaxTime, cfg.batch.deadlineSlack);
        } else if (!std::strcmp(flag, "--batch-setup") && valued) {
            ok = real(0, 0.49, cfg.batch.setupFraction);
        } else if (!std::strcmp(flag, "--chaos") && valued) {
            ok = count(0, 100, cfg.chaos.percent);
        } else if (!std::strcmp(flag, "--deadline-factor") && valued) {
            ok = real(0, kMaxTime, cfg.deadlineFactor);
        } else if (!std::strcmp(flag, "--deadline-floor-ms") && valued) {
            ok = duration(1e6, cfg.deadlineFloorNs);
        } else if (!std::strcmp(flag, "--retries") && valued) {
            // The exponential backoff saturates long before 64 tries.
            ok = count(1, 64, cfg.backoff.maxAttempts);
        } else if (!std::strcmp(flag, "--json") && valued) {
            jsonPath = argv[++i];
        } else if (!std::strcmp(flag, "--trace-requests") && valued) {
            tracePath = argv[++i];
        } else if (!std::strcmp(flag, "--timeline") && valued) {
            timelinePath = argv[++i];
        } else if (!std::strcmp(flag, "--window-ms") && valued) {
            ok = count(1, uint64_t(kMaxTime), windowMs);
        } else if (!std::strcmp(flag, "--slo") && valued) {
            sloPath = argv[++i];
        } else if (!std::strcmp(flag, "--flight-recorder") && valued) {
            flightPath = argv[++i];
        } else if (!std::strcmp(flag, "--quiet")) {
            quiet = true;
        } else {
            usage();
            return 2;
        }
        if (!ok)
            return 2;
    }

    BenchJournal::instance().begin(
        "svc_run", "crypto-as-a-service robustness campaign");

    Server server(cfg);

    // Telemetry consumers live here (the engine borrows, not owns);
    // each is instantiated only when its artifact was requested.
    std::optional<RequestTracer> tracer;
    std::optional<TimelineAggregator> timeline;
    std::optional<SloEngine> slo;
    std::optional<FlightRecorder> flight;
    SvcTelemetry tel;
    if (!tracePath.empty())
        tel.tracer = &tracer.emplace();
    if (!timelinePath.empty()) {
        TimelineAggregator::Config tc;
        tc.windowNs = windowMs * 1'000'000;
        tel.timeline = &timeline.emplace(tc);
    }
    if (!sloPath.empty())
        tel.slo = &slo.emplace();
    if (!flightPath.empty())
        tel.flight = &flight.emplace();
    server.attachTelemetry(tel);

    server.run();
    const SvcCounters &c = server.counters();

    auto writeArtifact = [](bool ok, const std::string &path) {
        if (!ok)
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return ok;
    };
    if (tracer && !writeArtifact(tracer->writeFile(tracePath), tracePath))
        return 2;
    if (timeline
        && !writeArtifact(timeline->writeFile(timelinePath), timelinePath))
        return 2;
    if (slo && !writeArtifact(slo->writeFile(sloPath), sloPath))
        return 2;
    if (flight && !writeArtifact(flight->writeFile(flightPath), flightPath))
        return 2;

    if (!quiet)
        std::fputs(server.reportText().c_str(), stdout);

    if (!jsonPath.empty()) {
        Json doc = server.report();
        MetricsRegistry reg("ulecc.svc.v1");
        for (const JsonMember &m : doc.members()) {
            if (m.key != "schema")
                reg.set(m.key, m.value);
        }
        if (!reg.writeFile(jsonPath)) {
            std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
            return 2;
        }
    }

    // The soak invariant: every generated request reaches exactly one
    // final state -- a correct result or a structured error.  Anything
    // else (a lost request, a wrong answer marked ok, an exception
    // outside the Errc taxonomy) is a robustness failure.
    uint64_t finals = c.completedOk + c.failed;
    bool lost = finals != c.generated;
    bool corrupt = c.wrongAnswers != 0 || c.unstructuredExceptions != 0;
    if (lost || corrupt) {
        std::fprintf(stderr,
                     "svc_run: ROBUSTNESS FAILURE: finals %llu / %llu, "
                     "wrong answers %llu, unstructured %llu\n",
                     (unsigned long long)finals,
                     (unsigned long long)c.generated,
                     (unsigned long long)c.wrongAnswers,
                     (unsigned long long)c.unstructuredExceptions);
        return 1;
    }

    // Alerting completeness: a campaign that breaches its error
    // budget must have fired at least one alert along the way --
    // silent SLO breaches are an observability failure.
    if (slo && slo->breached() && slo->alertsFired() == 0) {
        std::fprintf(stderr,
                     "svc_run: SLO COMPLETENESS FAILURE: error ratio "
                     "breached the budget with no alert fired\n");
        return 1;
    }

    BenchJournal::instance().note(
        "svc: " + std::to_string(c.generated) + " requests, "
        + std::to_string(c.completedOk) + " ok, "
        + std::to_string(c.failed) + " structured failures, "
        + std::to_string(c.chaosStrikes) + " chaos strikes");
    BenchJournal::instance().flush();
    return 0;
}
