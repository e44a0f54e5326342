/**
 * @file
 * ulecc-run: assemble and execute a program on the simulated platform.
 *
 * Usage:
 *   ulecc-run [options] program.s
 *     --icache N     attach an N-KB direct-mapped instruction cache
 *                    (N a power of two, at most the 256 KB ROM)
 *     --prefetch     enable the stream-buffer prefetcher
 *     --monte        attach the Monte coprocessor
 *     --billie       attach the Billie coprocessor (B-163, D = 3)
 *     --multiplier V pick the Hi/Lo multiplier design point
 *                    (karatsuba | schoolbook | karatsuba2 | clmulwide;
 *                    timing/energy only -- results are identical)
 *     --max-cycles N cycle budget (default 500M), checked before
 *                    every instruction
 *     --dump A N     after halt, hex-dump N words from address A
 *     --energy       print the energy estimate for the run
 *     --trace FILE   write a Chrome trace-event JSON of the pipeline
 *     --profile      print a cycle-attribution profile by label
 *     --metrics FILE write run metrics as a JSON document
 *
 * The program sees the paper's memory map: 256 KB ROM at 0x0,
 * 16 KB RAM at 0x10000000; execution ends at `break`.
 *
 * Numeric arguments parse strictly (decimal; --max-cycles and --dump
 * also take C-style 0x / 0 prefixes): trailing junk, signs, and
 * out-of-range values exit 2 with an [invalid-input] message, as does
 * an I-cache size that is not a power-of-two line count.
 */

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "accel/billie.hh"
#include "accel/monte.hh"
#include "asmkit/assembler.hh"
#include "energy/power_model.hh"
#include "obs/energy_ledger.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/trace.hh"
#include "sim/cpu.hh"

#include "flag_parse.hh"

using namespace ulecc;

namespace
{

constexpr const char *kTool = "ulecc-run";

void
usage()
{
    std::fprintf(stderr,
                 "usage: ulecc-run [--icache KB] [--prefetch] [--monte] "
                 "[--billie]\n"
                 "                 [--multiplier VARIANT] "
                 "[--max-cycles N]\n"
                 "                 [--dump ADDR WORDS]\n"
                 "                 [--energy] [--trace FILE] [--profile] "
                 "[--metrics FILE]\n"
                 "                 program.s\n");
}

/** The run's activity, in the power model's terms. */
EventCounts
collectEvents(const Pete &cpu, const PeteConfig &config,
              const Monte *monte, const Billie *billie)
{
    const PeteStats &s = cpu.stats();
    EventCounts ev;
    ev.cycles = s.cycles;
    ev.instructions = s.instructions;
    // Each issue occupies the unit for the configured latency -- the
    // descriptor-sourced field, never a literal (GF(2)-heavy runs on a
    // split-latency variant are approximated by the integer latency).
    ev.multActiveCycles = s.multIssues * config.multLatency;
    ev.romNarrowReads = cpu.mem().romFetchCounters().reads;
    ev.romWideReads = cpu.mem().romFetchCounters().wideReads;
    ev.ramReads = cpu.mem().ramCounters().reads;
    ev.ramWrites = cpu.mem().ramCounters().writes;
    if (cpu.icache()) {
        ev.hasIcache = true;
        ev.icacheBytes = config.icache.sizeBytes;
        ev.icAccesses = cpu.icache()->stats().accesses;
        ev.icFills = cpu.icache()->romWideReads();
    }
    if (monte) {
        ev.hasMonte = true;
        ev.monteFfauCycles = monte->stats().ffauActiveCycles;
        ev.monteDmaCycles = monte->stats().dmaActiveCycles;
        ev.monteBufAccesses = monte->stats().bufferReads
            + monte->stats().bufferWrites;
    }
    if (billie) {
        ev.hasBillie = true;
        ev.billieBits = billie->field().degree();
        ev.billieActiveCycles = billie->stats().activeCycles;
    }
    return ev;
}

/** Per-cause stall cycle object for the metrics document. */
Json
stallsToJson(const PeteStats &s)
{
    Json stalls = Json::object();
    for (size_t i = 0;
         i < static_cast<size_t>(StallCause::NumCauses); ++i) {
        StallCause cause = static_cast<StallCause>(i);
        stalls[stallCauseName(cause)] = stallCycles(s, cause);
    }
    stalls["total"] = totalStallCycles(s);
    return stalls;
}

} // namespace

int
main(int argc, char **argv)
{
    PeteConfig config;
    bool use_monte = false, use_billie = false, energy = false;
    bool profile = false;
    uint64_t dump_addr = 0, dump_words = 0;
    const char *path = nullptr;
    const char *trace_path = nullptr;
    const char *metrics_path = nullptr;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--icache") && i + 1 < argc) {
            // A cache larger than the ROM it fronts has nothing to hold.
            uint64_t kb = 0;
            if (!parseCount(kTool, "--icache", argv[++i], 10, 1,
                            MemoryMap::romSize / 1024, kb))
                return 2;
            config.icacheEnabled = true;
            config.icache.sizeBytes = static_cast<uint32_t>(kb * 1024);
        } else if (!std::strcmp(argv[i], "--prefetch")) {
            config.icache.prefetch = true;
        } else if (!std::strcmp(argv[i], "--monte")) {
            use_monte = true;
        } else if (!std::strcmp(argv[i], "--billie")) {
            use_billie = true;
        } else if (!std::strcmp(argv[i], "--multiplier")
                   && i + 1 < argc) {
            MultiplierVariant v;
            if (!parseMultiplierVariant(argv[++i], v)) {
                std::fprintf(stderr,
                             "ulecc-run: unknown multiplier '%s'\n",
                             argv[i]);
                usage();
                return 2;
            }
            applyMultiplier(config, v);
        } else if (!std::strcmp(argv[i], "--max-cycles")
                   && i + 1 < argc) {
            if (!parseCount(kTool, "--max-cycles", argv[++i], 0, 1,
                            UINT64_MAX, config.maxCycles))
                return 2;
        } else if (!std::strcmp(argv[i], "--dump") && i + 2 < argc) {
            // The dumped range may not wrap the 32-bit address space.
            if (!parseCount(kTool, "--dump address", argv[++i], 0, 0,
                            UINT32_MAX, dump_addr)
                || !parseCount(kTool, "--dump words", argv[++i], 0, 0,
                               ((1ull << 32) - dump_addr) / 4,
                               dump_words))
                return 2;
        } else if (!std::strcmp(argv[i], "--energy")) {
            energy = true;
        } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--profile")) {
            profile = true;
        } else if (!std::strcmp(argv[i], "--metrics") && i + 1 < argc) {
            metrics_path = argv[++i];
        } else if (argv[i][0] == '-') {
            usage();
            return 2;
        } else {
            path = argv[i];
        }
    }
    if (!path) {
        usage();
        return 2;
    }
    if (config.icacheEnabled) {
        // The cache geometry is validated where it is built; probe it
        // here so a bad size is a usage error, not a simulation fault.
        try {
            ICache probe(config.icache);
        } catch (const UleccError &e) {
            std::fprintf(stderr, "ulecc-run: [%s] %s\n",
                         errcName(e.code()), e.error().context.c_str());
            return 2;
        }
    }

    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "ulecc-run: cannot open %s\n", path);
        return 1;
    }
    std::ostringstream src;
    src << in.rdbuf();

    try {
        Program prog = assemble(src.str());
        std::printf("assembled %s: %u bytes, %zu labels\n", path,
                    prog.sizeBytes(), prog.labels.size());

        Pete cpu(prog, config);
        Monte monte;
        Billie billie;
        if (use_monte)
            cpu.attachCop2(&monte);
        else if (use_billie)
            cpu.attachCop2(&billie);

        // Observability hooks: both riders share the one step-hook
        // slot through a fan-out list; the tracer doubles as the span
        // sink so accelerator TraceScopes land on the phase track.
        StepHookList hooks;
        PipelineTracer tracer;
        CycleProfiler profiler(prog);
        std::optional<SpanSinkScope> spans;
        if (trace_path) {
            hooks.add(&tracer);
            spans.emplace(&tracer);
        }
        if (profile)
            hooks.add(&profiler);
        if (trace_path || profile)
            cpu.attachStepHook(&hooks);

        auto wall0 = std::chrono::steady_clock::now();
        Result<uint64_t> outcome = cpu.runChecked();
        double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall0)
                            .count();
        bool halted = outcome.ok();
        if (!halted) {
            std::fprintf(stderr, "ulecc-run: [%s] %s\n",
                         errcName(outcome.code()),
                         outcome.error().context.c_str());
        }
        if (trace_path)
            tracer.finish(cpu);
        if (profile)
            profiler.finish(cpu);
        const PeteStats &s = cpu.stats();
        std::printf("%s after %lu cycles, %lu instructions "
                    "(IPC %.3f)\n",
                    halted ? "halted"
                           : outcome.code() == Errc::SimTimeout
                               ? "CYCLE BUDGET EXHAUSTED"
                               : "SIMULATION FAULT",
                    (unsigned long)s.cycles,
                    (unsigned long)s.instructions,
                    s.cycles ? double(s.instructions) / s.cycles : 0.0);
        std::printf("stalls: load-use %lu, mult %lu, branch-miss %lu, "
                    "jump %lu, icache %lu, cop2 %lu\n",
                    (unsigned long)s.loadUseStalls,
                    (unsigned long)s.multBusyStalls,
                    (unsigned long)s.branchMispredicts,
                    (unsigned long)s.jumpStalls,
                    (unsigned long)s.icacheStalls,
                    (unsigned long)s.cop2Stalls);
        const MemCounters &ram = cpu.mem().ramCounters();
        const MemCounters &romf = cpu.mem().romFetchCounters();
        std::printf("memory: ROM fetches %lu (+%lu wide), RAM %lu R / "
                    "%lu W\n",
                    (unsigned long)romf.reads,
                    (unsigned long)romf.wideReads,
                    (unsigned long)ram.reads, (unsigned long)ram.writes);
        if (cpu.icache()) {
            const ICacheStats &ic = cpu.icache()->stats();
            std::printf("icache: %lu accesses, %.3f%% miss, %lu "
                        "prefetch hits\n",
                        (unsigned long)ic.accesses,
                        100.0 * ic.missRate(),
                        (unsigned long)ic.prefetchHits);
        }
        if (use_monte) {
            std::printf("monte: %lu mul, %lu add/sub, FFAU %lu cy, "
                        "DMA %lu cy, %lu forwarded loads\n",
                        (unsigned long)monte.stats().mulOps,
                        (unsigned long)monte.stats().addSubOps,
                        (unsigned long)monte.stats().ffauActiveCycles,
                        (unsigned long)monte.stats().dmaActiveCycles,
                        (unsigned long)monte.stats().forwardedLoads);
        }
        if (use_billie) {
            std::printf("billie: %lu mul, %lu sqr, %lu add, %lu ld/st\n",
                        (unsigned long)billie.stats().mulOps,
                        (unsigned long)billie.stats().sqrOps,
                        (unsigned long)billie.stats().addOps,
                        (unsigned long)(billie.stats().loads
                                        + billie.stats().stores));
        }
        EventCounts ev = collectEvents(cpu, config,
                                       use_monte ? &monte : nullptr,
                                       use_billie ? &billie : nullptr);
        if (energy) {
            PowerModel pm;
            std::printf("energy: %.3f uJ total, %.3f mW average "
                        "(45 nm, 333 MHz model)\n",
                        pm.evaluate(ev).totalUj(),
                        pm.averagePowerMw(ev));
        }
        if (trace_path) {
            if (!tracer.writeFile(trace_path)) {
                std::fprintf(stderr,
                             "ulecc-run: cannot write trace %s\n",
                             trace_path);
                return 1;
            }
            std::printf("trace: %lu cycles over %lu instructions -> "
                        "%s%s\n",
                        (unsigned long)tracer.tracedCycles(),
                        (unsigned long)tracer.tracedInstructions(),
                        trace_path,
                        tracer.droppedEvents() ? " (truncated)" : "");
        }
        if (profile)
            std::fputs(profiler.report().renderText().c_str(), stdout);
        if (metrics_path) {
            MetricsRegistry reg("ulecc.run.v1");
            reg.set("program", path);
            reg.set("multiplier",
                    multiplierVariantName(config.multiplier));
            reg.set("halted", halted);
            if (!halted)
                reg.set("error", errcName(outcome.code()));
            reg.set("cycles", s.cycles);
            reg.set("instructions", s.instructions);
            reg.set("ipc", s.cycles
                               ? double(s.instructions) / s.cycles
                               : 0.0);
            reg.set("sim_wall_seconds", wall_s);
            reg.set("sim_mips",
                    wall_s > 0 ? s.instructions / wall_s / 1e6 : 0.0);
            reg.set("stall_cycles", stallsToJson(s));
            Json mem = Json::object();
            mem["rom_reads"] = romf.reads;
            mem["rom_wide_reads"] = romf.wideReads;
            mem["ram_reads"] = ram.reads;
            mem["ram_writes"] = ram.writes;
            reg.set("memory", std::move(mem));
            if (cpu.icache()) {
                Json ic = Json::object();
                ic["accesses"] = cpu.icache()->stats().accesses;
                ic["miss_rate"] = cpu.icache()->stats().missRate();
                reg.set("icache", std::move(ic));
            }
            EnergyLedger ledger;
            ledger.addPhase("run", ev);
            reg.set("energy", ledger.toJson());
            if (profile) {
                ProfileReport rep = profiler.report();
                reg.set("profile", rep.toJson());
            }
            if (!reg.writeFile(metrics_path)) {
                std::fprintf(stderr,
                             "ulecc-run: cannot write metrics %s\n",
                             metrics_path);
                return 1;
            }
        }
        if (dump_words) {
            for (uint64_t i = 0; i < dump_words; ++i) {
                uint32_t addr = static_cast<uint32_t>(dump_addr + 4 * i);
                if (i % 4 == 0)
                    std::printf("%08x:", addr);
                std::printf(" %08x", cpu.mem().peek32(addr));
                if (i % 4 == 3 || i + 1 == dump_words)
                    std::printf("\n");
            }
        }
        if (halted)
            return 0;
        // Exit 3 is the structured timeout contract (scripts watch
        // for it); any other simulation fault is a plain failure.
        return outcome.code() == Errc::SimTimeout ? 3 : 1;
    } catch (const UleccError &e) {
        std::fprintf(stderr, "ulecc-run: [%s] %s\n", errcName(e.code()),
                     e.error().context.c_str());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "ulecc-run: %s\n", e.what());
        return 1;
    }
}
