/**
 * @file
 * Table/series formatting helpers shared by the benchmark harnesses.
 *
 * Every bench binary prints the same rows/series the paper reports,
 * with the paper's value alongside ours where the paper states one.
 *
 * The same calls also feed the telemetry layer: banner() opens a
 * BenchJournal experiment, Table::print() and fmtVsPaper() capture the
 * structured data behind the text they emit, and at process exit the
 * journal appends one JSON record per experiment to the file named by
 * $ULECC_BENCH_METRICS.  Text output is byte-identical whether or not
 * the journal is armed.
 */

#ifndef ULECC_CORE_REPORT_HH
#define ULECC_CORE_REPORT_HH

#include <string>
#include <vector>

#include "core/json.hh"

namespace ulecc
{

/** A simple fixed-width text table. */
class Table
{
  public:
    explicit Table(std::vector<std::string> headers);

    /** Adds one row (must match the header count). */
    void addRow(std::vector<std::string> cells);

    /** Renders with aligned columns. */
    std::string render() const;

    /** Renders RFC-4180-style CSV (cells quoted when needed). */
    std::string renderCsv() const;

    /** {"headers": [...], "rows": [[...], ...]} -- cells as strings. */
    Json toJson() const;

    /** Prints to stdout (and records the table in the BenchJournal). */
    void print() const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** One ours-vs-paper comparison, as structured data. */
struct VsPaper
{
    double ours = 0;
    double paper = 0;

    /** ours/paper, or 0 when the paper value is 0. */
    double
    ratio() const
    {
        return paper != 0 ? ours / paper : 0;
    }

    Json toJson() const;
};

/** Formats a double with @p decimals digits. */
std::string fmt(double value, int decimals = 2);

/** Formats "ours (paper X)" cells and journals the {ours, paper,
 * ratio} record behind them. */
std::string fmtVsPaper(double ours, double paper, int decimals = 2);
std::string fmtVsPaper(const VsPaper &v, int decimals = 2);

/** Prints a bench banner: experiment id + description. */
void banner(const std::string &experiment, const std::string &title);

/**
 * Captures the structured shadow of a bench run.
 *
 * Armed only when $ULECC_BENCH_METRICS names a file; otherwise every
 * hook is a cheap early-out and bench binaries behave exactly as
 * before.  banner() begins an experiment (flushing the previous one),
 * and at exit the journal appends one compact JSON line per experiment:
 *
 *   {"schema": "ulecc.bench.v1", "experiment": ..., "title": ...,
 *    "tables": [...], "vs_paper": [...], "notes": [...]}
 */
class BenchJournal
{
  public:
    static BenchJournal &instance();

    /** True when a sink file is configured. */
    bool armed() const { return !path_.empty(); }

    /** Starts a new experiment record (flushes any open one). */
    void begin(const std::string &experiment, const std::string &title);

    /** Captures a printed table. */
    void recordTable(const Table &table);

    /** Captures one ours-vs-paper comparison. */
    void recordComparison(const VsPaper &v);

    /** Captures simulator throughput (bench_simspeed): wall-clock
     * seconds spent simulating and retired-instruction MIPS. */
    void recordSimSpeed(double wallSeconds, double mips);

    /** Captures service-engine throughput (bench_svc): completed
     * requests per wall-clock second with telemetry off, and the
     * telemetry-on/telemetry-off wall-clock overhead ratio (1.0 =
     * free; higher = slower with all consumers attached). */
    void recordSvcSpeed(double requestsPerSec, double telemetryOverhead);

    /** Captures request-batching effectiveness (bench_svc) on the
     * same-shape-heavy campaign: completed requests per wall-clock
     * second with batching off and on, the on/off throughput ratio,
     * and the mean members per executed batch pass. */
    void recordSvcBatch(double offRps, double onRps, double speedup,
                        double occupancy);

    /** Captures a free-form note line. */
    void note(const std::string &text);

    /** Appends the open record (if any) to the sink; idempotent. */
    void flush();

  private:
    BenchJournal();

    std::string path_;
    bool open_ = false;
    Json record_;
};

} // namespace ulecc

#endif // ULECC_CORE_REPORT_HH
