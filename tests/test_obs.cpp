/**
 * @file
 * Observability layer tests: pipeline tracer, cycle profiler, energy
 * ledger, metrics registry, bench journal, campaign-summary schema.
 *
 * The load-bearing invariants: trace stall totals reconcile exactly
 * against PeteStats, profiler self cycles partition the run's total,
 * ledger totals equal the PowerModel totals, and every emitted JSON
 * document survives a parse round-trip.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <string>

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "asmkit/assembler.hh"
#include "base/prng.hh"
#include "core/report.hh"
#include "fault/campaign_summary.hh"
#include "obs/energy_ledger.hh"
#include "obs/hdr_histogram.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"
#include "sim/cpu.hh"
#include "golden.hh"

using namespace ulecc;

namespace
{

constexpr const char *kJournalPath = "/tmp/ulecc_test_bench.jsonl";

// The journal singleton reads $ULECC_BENCH_METRICS once, at first use;
// arm it before any test (or any Table::print) can construct it.
const bool kJournalArmed = [] {
    std::remove(kJournalPath);
    setenv("ULECC_BENCH_METRICS", kJournalPath, 1);
    return true;
}();

/** Fixed workload exercising load-use, mult-busy and branch stalls. */
const char *kStallMix = R"(
main:
        li    $t0, 0x10000000
        li    $t1, 77
        sw    $t1, 0($t0)
        lw    $t2, 0($t0)
        addu  $t3, $t2, $t2     # load-use stall
        li    $t4, 13
        addu  $t5, $zero, $zero
mulloop:
        multu $t3, $t4
        mflo  $t3               # mult-busy stalls
        addiu $t5, $t5, 1
        sltiu $t6, $t5, 3
        bne   $t6, $zero, mulloop
        nop
done:
        sw    $t3, 4($t0)
        break
)";

/** Runs @p src with tracer + profiler riding the step-hook list. */
void
runTraced(const std::string &src, PipelineTracer &tracer,
          CycleProfiler &profiler, PeteStats &stats)
{
    Pete cpu(assemble(src), PeteConfig{});
    StepHookList hooks;
    hooks.add(&tracer);
    hooks.add(&profiler);
    cpu.attachStepHook(&hooks);
    ASSERT_TRUE(cpu.run());
    tracer.finish(cpu);
    profiler.finish(cpu);
    stats = cpu.stats();
}

} // namespace

TEST(PipelineTracer, StallTotalsMatchPeteStatsExactly)
{
    PipelineTracer tracer;
    CycleProfiler profiler{assemble(kStallMix)};
    PeteStats stats;
    runTraced(kStallMix, tracer, profiler, stats);

    // The workload actually stresses the pipeline.
    EXPECT_GT(stats.loadUseStalls, 0u);
    EXPECT_GT(stats.multBusyStalls, 0u);
    EXPECT_GT(stats.branchMispredicts, 0u);

    for (size_t c = 0;
         c < static_cast<size_t>(StallCause::NumCauses); ++c) {
        StallCause cause = static_cast<StallCause>(c);
        EXPECT_EQ(tracer.stallTotals()[cause], stallCycles(stats, cause))
            << "cause " << stallCauseName(cause);
    }
    uint64_t stallSum = 0;
    for (uint64_t c : tracer.stallTotals().cycles)
        stallSum += c;
    EXPECT_EQ(stallSum, totalStallCycles(stats));
    EXPECT_EQ(tracer.tracedCycles(), stats.cycles);
    EXPECT_EQ(tracer.tracedInstructions(), stats.instructions);
    EXPECT_EQ(tracer.droppedEvents(), 0u);
}

TEST(PipelineTracer, EmitsWellFormedChromeTraceWithMonotonicTimestamps)
{
    PipelineTracer tracer;
    CycleProfiler profiler{assemble(kStallMix)};
    PeteStats stats;
    runTraced(kStallMix, tracer, profiler, stats);

    Json doc = Json::parse(tracer.dump()).value();
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    ASSERT_GT(events->size(), 4u); // metadata + real events

    uint64_t last_retire_ts = 0;
    size_t retire_events = 0;
    for (size_t i = 0; i < events->size(); ++i) {
        const Json &ev = events->at(i);
        ASSERT_NE(ev.find("ph"), nullptr);
        ASSERT_NE(ev.find("name"), nullptr);
        const std::string &ph = ev.find("ph")->asString();
        if (ph == "M")
            continue;
        ASSERT_NE(ev.find("ts"), nullptr);
        uint64_t ts =
            static_cast<uint64_t>(ev.find("ts")->asInt());
        EXPECT_LE(ts, stats.cycles);
        if (ev.find("tid")->asInt() == 1 && ph == "X") {
            EXPECT_GE(ts, last_retire_ts)
                << "retire timestamps must be monotonic";
            last_retire_ts = ts;
            retire_events++;
        }
    }
    EXPECT_EQ(retire_events, stats.instructions);

    // The summary block reconciles with the run.
    const Json *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->find("cycles")->asInt(),
              static_cast<int64_t>(stats.cycles));
    EXPECT_EQ(other->find("stall_cycles")->find("mult-busy")->asInt(),
              static_cast<int64_t>(stats.multBusyStalls));
}

TEST(PipelineTracer, CapturesTraceScopeSpansOnPhaseTrack)
{
    PipelineTracer tracer;
    {
        SpanSinkScope sink(&tracer);
        TraceScope outer("ecdsa.sign", "protocol");
        TraceScope inner("ec.scalar_mul", "kernel");
    }
    Json doc = Json::parse(tracer.dump()).value();
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    int begins = 0, ends = 0;
    for (size_t i = 0; i < events->size(); ++i) {
        const Json &ev = events->at(i);
        const std::string &ph = ev.find("ph")->asString();
        if (ph == "B") {
            begins++;
            EXPECT_EQ(ev.find("tid")->asInt(), 3);
        } else if (ph == "E") {
            ends++;
        }
    }
    EXPECT_EQ(begins, 2);
    EXPECT_EQ(ends, 2);
}

TEST(SpanRecorder, TracksNestingDepthAndBalance)
{
    SpanRecorder rec;
    {
        SpanSinkScope sink(&rec);
        TraceScope outer("ecdsa.verify", "protocol");
        {
            TraceScope inner("ec.twin_scalar_mul", "kernel");
        }
        TraceScope sibling("ecdsa.hash", "protocol");
    }
    ASSERT_TRUE(rec.balanced());
    ASSERT_EQ(rec.spans().size(), 3u);
    EXPECT_EQ(rec.spans()[0].name, "ecdsa.verify");
    EXPECT_EQ(rec.spans()[0].depth, 0);
    EXPECT_EQ(rec.spans()[1].name, "ec.twin_scalar_mul");
    EXPECT_EQ(rec.spans()[1].depth, 1);
    EXPECT_EQ(rec.spans()[2].depth, 1);
    // Inner closed before outer.
    EXPECT_LT(rec.spans()[1].endSeq, rec.spans()[0].endSeq);
}

TEST(CycleProfiler, SelfCyclesPartitionTheRunTotal)
{
    PipelineTracer tracer;
    CycleProfiler profiler{assemble(kStallMix)};
    PeteStats stats;
    runTraced(kStallMix, tracer, profiler, stats);

    ProfileReport rep = profiler.report();
    EXPECT_EQ(rep.totalCycles, stats.cycles);
    EXPECT_EQ(rep.totalInstructions, stats.instructions);

    uint64_t self_sum = 0, inst_sum = 0, stall_sum = 0;
    for (const LabelProfile &lp : rep.labels) {
        self_sum += lp.selfCycles;
        inst_sum += lp.instructions;
        for (uint64_t c : lp.stalls.cycles)
            stall_sum += c;
        EXPECT_GE(lp.totalCycles, lp.selfCycles);
    }
    EXPECT_EQ(self_sum, stats.cycles);
    EXPECT_EQ(inst_sum, stats.instructions);
    EXPECT_EQ(stall_sum, totalStallCycles(stats));

    // Every instruction of this program sits under a label.
    EXPECT_EQ(rep.attributedCycles, rep.totalCycles);
    EXPECT_DOUBLE_EQ(rep.attributedFraction(), 1.0);
}

TEST(CycleProfiler, AttributesCalleesToCallersInclusively)
{
    const char *src = R"(
main:
        li    $t0, 5
        addu  $t1, $zero, $zero
loop:
        jal   square
        nop
        addiu $t0, $t0, -1
        bne   $t0, $zero, loop
        nop
        break
square:
        multu $t1, $t1
        mflo  $t2
        jr    $ra
        addiu $t1, $t1, 1
)";
    CycleProfiler profiler{assemble(src)};
    Pete cpu(assemble(src), PeteConfig{});
    cpu.attachStepHook(&profiler);
    ASSERT_TRUE(cpu.run());
    profiler.finish(cpu);

    ProfileReport rep = profiler.report();
    const LabelProfile *loop = nullptr, *square = nullptr;
    for (const LabelProfile &lp : rep.labels) {
        if (lp.label == "loop")
            loop = &lp;
        if (lp.label == "square")
            square = &lp;
    }
    ASSERT_NE(loop, nullptr);
    ASSERT_NE(square, nullptr);
    EXPECT_GT(square->selfCycles, 0u);
    // The callee's cycles roll up into the calling region.
    EXPECT_GE(loop->totalCycles,
              loop->selfCycles + square->selfCycles);
    EXPECT_DOUBLE_EQ(rep.attributedFraction(), 1.0);
}

TEST(CycleProfiler, GoldenReportIsStable)
{
    CycleProfiler profiler{assemble(kStallMix)};
    Pete cpu(assemble(kStallMix), PeteConfig{});
    cpu.attachStepHook(&profiler);
    ASSERT_TRUE(cpu.run());
    profiler.finish(cpu);
    std::string actual = profiler.report().renderText();
    ulecc::test::expectMatchesGolden("profile_stall_mix.txt", actual);
}

TEST(EnergyLedger, TotalsEqualPowerModelTotals)
{
    PowerModel pm;
    EventCounts sign;
    sign.cycles = 1'000'000;
    sign.instructions = 800'000;
    sign.multActiveCycles = 120'000;
    sign.romNarrowReads = 800'000;
    sign.ramReads = 90'000;
    sign.ramWrites = 40'000;
    EventCounts verify = sign;
    verify.cycles = 1'900'000;
    verify.instructions = 1'500'000;

    EnergyLedger ledger(pm);
    ledger.addPhase("sign", sign);
    ledger.addPhase("verify", verify);

    double expected =
        pm.evaluate(sign).totalUj() + pm.evaluate(verify).totalUj();
    EXPECT_DOUBLE_EQ(ledger.totalUj(), expected);

    // Each phase's components reconcile with its model breakdown:
    // the multiplier split is carved out of (not added to) the Pete
    // share.
    Json doc = ledger.toJson();
    const Json &phases = *doc.find("phases");
    ASSERT_EQ(phases.size(), 2u);
    const EventCounts *events[] = {&sign, &verify};
    double sum = 0;
    for (size_t i = 0; i < 2; ++i) {
        double phaseUj = pm.evaluate(*events[i]).totalUj();
        EXPECT_DOUBLE_EQ(phases.at(i).find("total_uj")->asDouble(),
                         phaseUj);
        const Json &components = *phases.at(i).find("components");
        double phaseSum = 0;
        for (const char *name : {"pete-core", "multiplier", "ram", "rom",
                                 "uncore", "monte", "billie"}) {
            ASSERT_NE(components.find(name), nullptr) << name;
            phaseSum += components.find(name)->asDouble();
        }
        EXPECT_EQ(components.members().size(), 7u);
        EXPECT_NEAR(phaseSum, phaseUj, 1e-12 * phaseUj);
        sum += phaseSum;
    }
    EXPECT_NEAR(sum, expected, 1e-12 * expected);
    EXPECT_DOUBLE_EQ(doc.find("total_uj")->asDouble(), expected);

    // Repeated phases accumulate.
    EnergyLedger twice(pm);
    twice.addPhase("sign", sign);
    twice.addPhase("sign", sign);
    EventCounts doubled = sign;
    doubled += sign;
    EXPECT_DOUBLE_EQ(twice.totalUj(), pm.evaluate(doubled).totalUj());
}

TEST(Json, RoundTripsThroughDumpAndParse)
{
    Json doc = Json::object();
    doc["int"] = int64_t{-9007199254740993};
    doc["big"] = uint64_t{9223372036854775807ull};
    doc["pi"] = 3.14159265358979;
    doc["tiny"] = 1.0e-300;
    doc["text"] = "line\n\"quoted\"\ttab \xE2\x9C\x93";
    doc["flag"] = true;
    doc["nothing"] = nullptr;
    Json arr = Json::array();
    arr.push(1);
    arr.push("two");
    arr.push(Json::object());
    doc["list"] = std::move(arr);

    for (int indent : {-1, 0, 2}) {
        Result<Json> back = Json::parse(doc.dump(indent));
        ASSERT_TRUE(back.ok()) << back.error().context;
        EXPECT_EQ(back.value(), doc) << "indent " << indent;
    }

    // Key order is preserved -- the schema-stability property.
    EXPECT_EQ(doc.members()[0].key, "int");
    EXPECT_EQ(doc.members()[4].key, "text");
}

TEST(WriteTextFile, JsonDocumentRoundTrips)
{
    Json doc = Json::object();
    doc["schema"] = "ulecc.test.v1";
    doc["cycles"] = uint64_t{123456789};
    doc["ipc"] = 0.875;
    doc["ipc"] = 0.5; // replaces in place
    Json nested = Json::object();
    nested["kind"] = "stall";
    doc["detail"] = std::move(nested);
    std::string written = doc.dump(2) + "\n";

    const char *path = "/tmp/ulecc_test_metrics.json";
    ASSERT_TRUE(writeTextFile(path, written));
    std::ifstream in(path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::remove(path);
    EXPECT_EQ(text, written);
    Result<Json> back = Json::parse(text);
    ASSERT_TRUE(back.ok());
    const Json &read = back.value();
    ASSERT_EQ(read.members().size(), 4u);
    EXPECT_EQ(read.members()[0].key, "schema");
    EXPECT_EQ(read.find("schema")->asString(), "ulecc.test.v1");
    EXPECT_EQ(read.find("cycles")->asInt(), 123456789);
    EXPECT_EQ(read.members()[2].key, "ipc");
    EXPECT_EQ(read.find("ipc")->asDouble(), 0.5);
    EXPECT_EQ(read.find("detail")->find("kind")->asString(), "stall");

    EXPECT_FALSE(writeTextFile("/nonexistent-dir/metrics.json", written));
}

TEST(Table, RendersTextAndJsonFromTheSameRows)
{
    Table t({"Config", "Energy uJ", "Note"});
    t.addRow({"baseline", "12.50", "plain"});
    t.addRow({"monte", "1.25", "has, comma and \"quotes\""});

    Json doc = t.toJson();
    ASSERT_EQ(doc.find("headers")->size(), 3u);
    ASSERT_EQ(doc.find("rows")->size(), 2u);
    EXPECT_EQ(doc.find("rows")->at(1).at(0).asString(), "monte");

    // The text rendering is untouched by the telemetry capture.
    std::string text = t.render();
    EXPECT_NE(text.find("baseline"), std::string::npos);
    EXPECT_NE(text.find("-----"), std::string::npos);
}

TEST(VsPaper, RatioAndJsonShape)
{
    VsPaper v{11.0, 10.0};
    EXPECT_DOUBLE_EQ(v.ratio(), 1.1);
    EXPECT_DOUBLE_EQ((VsPaper{1.0, 0.0}).ratio(), 0.0);
    Json doc = v.toJson();
    EXPECT_EQ(doc.members()[0].key, "ours");
    EXPECT_EQ(doc.members()[1].key, "paper");
    EXPECT_EQ(doc.members()[2].key, "ratio");
    // The text cell format is pinned: benches print it verbatim.
    EXPECT_EQ(fmtVsPaper(11.0, 10.0), "11.00 (paper 10.00)");
}

TEST(BenchJournal, CapturesBannerTablesAndComparisons)
{
    ASSERT_TRUE(kJournalArmed);
    BenchJournal &journal = BenchJournal::instance();
    ASSERT_TRUE(journal.armed());

    banner("test.exp", "journal capture");
    Table t({"A", "B"});
    t.addRow({"1", "2"});
    t.print();
    fmtVsPaper(2.0, 4.0);
    journal.note("a note");
    journal.flush();

    std::ifstream in(kJournalPath);
    ASSERT_TRUE(in.good());
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    Result<Json> rec = Json::parse(line);
    ASSERT_TRUE(rec.ok()) << rec.error().context;
    const Json &doc = rec.value();
    EXPECT_EQ(doc.find("schema")->asString(), "ulecc.bench.v1");
    EXPECT_EQ(doc.find("experiment")->asString(), "test.exp");
    ASSERT_EQ(doc.find("tables")->size(), 1u);
    ASSERT_EQ(doc.find("vs_paper")->size(), 1u);
    EXPECT_DOUBLE_EQ(
        doc.find("vs_paper")->at(0).find("ratio")->asDouble(), 0.5);
    ASSERT_EQ(doc.find("notes")->size(), 1u);
    EXPECT_EQ(doc.find("notes")->at(0).asString(), "a note");

    // Flushing again must not duplicate the record.
    journal.flush();
    int lines = 1;
    while (std::getline(in, line))
        ++lines;
    EXPECT_EQ(lines, 1);
}

TEST(CampaignSummary, JsonShapeIsStable)
{
    CampaignSummary summary(42, 3);
    summary.record("mp-add", CampaignOutcome::Detected);
    summary.record("mp-add", CampaignOutcome::Masked);
    summary.record("crypto-corrupt-pubkey",
                   CampaignOutcome::SilentlyCorrupted);

    Json doc = summary.toJson();
    // Top-level key order is the schema contract.
    ASSERT_EQ(doc.members().size(), 6u);
    EXPECT_EQ(doc.members()[0].key, "schema");
    EXPECT_EQ(doc.members()[1].key, "tool");
    EXPECT_EQ(doc.members()[2].key, "seed");
    EXPECT_EQ(doc.members()[3].key, "campaigns");
    EXPECT_EQ(doc.members()[4].key, "outcomes");
    EXPECT_EQ(doc.members()[5].key, "by_kind");
    EXPECT_EQ(doc.find("schema")->asString(),
              "ulecc.fault_campaign.v1");

    const Json &outcomes = *doc.find("outcomes");
    ASSERT_EQ(outcomes.members().size(), 4u);
    EXPECT_EQ(outcomes.members()[0].key, "detected");
    EXPECT_EQ(outcomes.members()[1].key, "silently_corrupted");
    EXPECT_EQ(outcomes.members()[2].key, "masked");
    EXPECT_EQ(outcomes.members()[3].key, "crashed");
    EXPECT_EQ(outcomes.find("detected")->asInt(), 1);
    EXPECT_EQ(outcomes.find("masked")->asInt(), 1);

    EXPECT_EQ(doc.find("by_kind")->find("mp-add")
                  ->find("detected")->asInt(), 1);
    EXPECT_EQ(summary.count(CampaignOutcome::Crashed), 0u);

    Result<Json> back = Json::parse(doc.dump(2));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), doc);
}

TEST(Pete, AddStallAttributesTheCause)
{
    Pete cpu(assemble("break\n"), PeteConfig{});
    uint64_t before = cpu.stats().cycles;
    cpu.addStall(3, StallCause::External);
    cpu.addStall(2, StallCause::Cop2);
    cpu.addStall(4); // unattributed default lands on External
    EXPECT_EQ(cpu.stats().cycles, before + 9);
    EXPECT_EQ(cpu.stats().externalStalls, 7u);
    EXPECT_EQ(cpu.stats().cop2Stalls, 2u);
    EXPECT_EQ(totalStallCycles(cpu.stats()), 9u);
    EXPECT_EQ(stallCycles(cpu.stats(), StallCause::External), 7u);
}

// ---------------------------------------------------------------------
// HdrHistogram (src/obs/hdr_histogram.hh)

namespace
{

/** The sorted-vector rank the histogram promises to approximate. */
uint64_t
oraclePermille(std::vector<uint64_t> values, unsigned permille)
{
    std::sort(values.begin(), values.end());
    size_t idx = (values.size() - 1)
        * static_cast<size_t>(permille) / 1000;
    return values[idx];
}

} // namespace

TEST(HdrHistogram, MatchesSortedVectorOracleAcrossDistributions)
{
    // Four shapes: small exact-range values, a wide uniform spread,
    // a heavy-tailed (exponentially ranged) mix, and ties on bucket
    // boundaries.  For every queried rank the histogram must land in
    // the same bucket as the exact order statistic and never
    // undershoot it -- i.e. exact <= result <= bucketHigh(exact).
    SplitMix64 gen(0x0b5e7ed);
    const unsigned ranks[] = {0, 100, 250, 500, 900, 990, 999, 1000};
    for (int dist = 0; dist < 4; ++dist) {
        HdrHistogram h;
        std::vector<uint64_t> values;
        for (int i = 0; i < 5000; ++i) {
            uint64_t v = 0;
            switch (dist) {
              case 0: v = gen.below(32); break;            // all exact
              case 1: v = gen.below(50'000'000); break;    // wide
              case 2:                                       // heavy tail
                v = gen.below(1ull << (1 + gen.below(40)));
                break;
              case 3:                                       // edges+ties
                v = HdrHistogram::bucketLow(gen.below(400));
                break;
            }
            h.record(v);
            values.push_back(v);
        }
        ASSERT_EQ(h.count(), values.size());
        EXPECT_EQ(h.max(), *std::max_element(values.begin(), values.end()));
        for (unsigned p : ranks) {
            uint64_t exact = oraclePermille(values, p);
            uint64_t got = h.percentilePermille(p);
            EXPECT_GE(got, exact) << "dist " << dist << " p" << p;
            EXPECT_LE(got,
                      HdrHistogram::bucketHigh(
                          HdrHistogram::bucketIndex(exact)))
                << "dist " << dist << " p" << p;
            // Which also bounds the relative error by the documented
            // 2^-kSubBucketBits.
            EXPECT_LE(static_cast<double>(got),
                      static_cast<double>(exact)
                          * (1.0 + HdrHistogram::relativeErrorBound())
                          + 1.0)
                << "dist " << dist << " p" << p;
        }
    }
}

TEST(HdrHistogram, EmptyAndSingleSampleEdgeCases)
{
    HdrHistogram empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.count(), 0u);
    EXPECT_EQ(empty.max(), 0u);
    EXPECT_EQ(empty.sum(), 0u);
    EXPECT_EQ(empty.mean(), 0.0);
    EXPECT_EQ(empty.percentilePermille(500), 0u);

    // A single sample is exact at every rank: the upper bucket edge
    // is clamped to the recorded maximum.
    HdrHistogram one;
    one.record(123'456'789);
    for (unsigned p : {0u, 1u, 500u, 999u, 1000u})
        EXPECT_EQ(one.percentilePermille(p), 123'456'789u);
    EXPECT_EQ(one.max(), 123'456'789u);
    EXPECT_EQ(one.sum(), 123'456'789u);
}
