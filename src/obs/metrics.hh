/**
 * @file
 * Metrics registry + JSON file sink.
 *
 * A MetricsRegistry is an ordered bag of named values (counters,
 * gauges, strings, nested documents) that serialises to one stable
 * JSON object.  The tools that write a metrics document -- ulecc-run
 * --metrics, svc_run --json and diffuzz --json -- set what they
 * measured and write the whole file.
 */

#ifndef ULECC_OBS_METRICS_HH
#define ULECC_OBS_METRICS_HH

#include <string>

#include "core/json.hh"

namespace ulecc
{

/** The registry: ordered name -> value, rendered as a JSON object. */
class MetricsRegistry
{
  public:
    explicit MetricsRegistry(const std::string &schema = "")
    {
        if (!schema.empty())
            root_["schema"] = schema;
    }

    /** Sets (or replaces) one metric; nested Json values are allowed. */
    void
    set(const std::string &name, Json value)
    {
        root_[name] = std::move(value);
    }

    /** Pretty-printed document to @p path; false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    Json root_ = Json::object();
};

} // namespace ulecc

#endif // ULECC_OBS_METRICS_HH
