/**
 * @file
 * Report helpers implementation.
 */

#include "core/report.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ulecc
{

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    cells.resize(headers_.size());
    rows_.push_back(std::move(cells));
}

std::string
Table::render() const
{
    std::vector<size_t> widths(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i)
        widths[i] = headers_[i].size();
    for (const auto &row : rows_) {
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    }
    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &cells) {
        for (size_t i = 0; i < cells.size(); ++i) {
            os << "  " << cells[i]
               << std::string(widths[i] - cells[i].size(), ' ');
        }
        os << "\n";
    };
    emit(headers_);
    size_t total = 0;
    for (size_t w : widths)
        total += w + 2;
    os << "  " << std::string(total - 2, '-') << "\n";
    for (const auto &row : rows_)
        emit(row);
    return os.str();
}

Json
Table::toJson() const
{
    Json doc = Json::object();
    Json headers = Json::array();
    for (const std::string &h : headers_)
        headers.push(h);
    doc["headers"] = std::move(headers);
    Json rows = Json::array();
    for (const auto &row : rows_) {
        Json cells = Json::array();
        for (const std::string &c : row)
            cells.push(c);
        rows.push(std::move(cells));
    }
    doc["rows"] = std::move(rows);
    return doc;
}

void
Table::print() const
{
    BenchJournal::instance().recordTable(*this);
    std::fputs(render().c_str(), stdout);
}

Json
VsPaper::toJson() const
{
    Json doc = Json::object();
    doc["ours"] = ours;
    doc["paper"] = paper;
    doc["ratio"] = ratio();
    return doc;
}

std::string
fmt(double value, int decimals)
{
    char buf[64];
    snprintf(buf, sizeof buf, "%.*f", decimals, value);
    return buf;
}

std::string
fmtVsPaper(const VsPaper &v, int decimals)
{
    BenchJournal::instance().recordComparison(v);
    char buf[96];
    snprintf(buf, sizeof buf, "%.*f (paper %.*f)", decimals, v.ours,
             decimals, v.paper);
    return buf;
}

std::string
fmtVsPaper(double ours, double paper, int decimals)
{
    return fmtVsPaper(VsPaper{ours, paper}, decimals);
}

void
banner(const std::string &experiment, const std::string &title)
{
    BenchJournal::instance().begin(experiment, title);
    std::printf("\n==== %s: %s ====\n", experiment.c_str(),
                title.c_str());
}

BenchJournal::BenchJournal()
{
    if (const char *path = std::getenv("ULECC_BENCH_METRICS"))
        path_ = path;
}

BenchJournal &
BenchJournal::instance()
{
    static BenchJournal journal;
    return journal;
}

void
BenchJournal::begin(const std::string &experiment,
                    const std::string &title)
{
    if (!armed())
        return;
    flush();
    record_ = Json::object();
    record_["schema"] = "ulecc.bench.v1";
    record_["experiment"] = experiment;
    record_["title"] = title;
    record_["tables"] = Json::array();
    record_["vs_paper"] = Json::array();
    record_["notes"] = Json::array();
    open_ = true;
    // Registered here (not in the ctor) so only bench-style processes
    // that actually print a banner pay the exit hook.
    static bool registered = false;
    if (!registered) {
        registered = true;
        std::atexit([] { BenchJournal::instance().flush(); });
    }
}

void
BenchJournal::recordTable(const Table &table)
{
    if (!open_)
        return;
    record_["tables"].push(table.toJson());
}

void
BenchJournal::recordComparison(const VsPaper &v)
{
    if (!open_)
        return;
    record_["vs_paper"].push(v.toJson());
}

void
BenchJournal::recordSimSpeed(double wallSeconds, double mips)
{
    if (!open_)
        return;
    record_["sim_wall_seconds"] = wallSeconds;
    record_["sim_mips"] = mips;
}

void
BenchJournal::recordSvcSpeed(double requestsPerSec,
                             double telemetryOverhead)
{
    if (!open_)
        return;
    record_["svc_requests_per_sec"] = requestsPerSec;
    record_["svc_telemetry_overhead"] = telemetryOverhead;
}

void
BenchJournal::recordSvcBatch(double offRps, double onRps,
                             double speedup, double occupancy)
{
    if (!open_)
        return;
    record_["svc_batch_off_rps"] = offRps;
    record_["svc_batch_on_rps"] = onRps;
    record_["svc_batch_speedup"] = speedup;
    record_["svc_batch_occupancy"] = occupancy;
}

void
BenchJournal::note(const std::string &text)
{
    if (!open_)
        return;
    record_["notes"].push(text);
}

void
BenchJournal::flush()
{
    if (!open_)
        return;
    open_ = false;
    std::ofstream out(path_, std::ios::binary | std::ios::app);
    if (!out)
        return;
    out << record_.dump() << "\n";
}

} // namespace ulecc
