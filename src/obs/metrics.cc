/**
 * @file
 * MetricsRegistry file sink.
 */

#include "obs/metrics.hh"

#include <fstream>

namespace ulecc
{

bool
MetricsRegistry::writeFile(const std::string &path) const
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << root_.dump(2) << "\n";
    return static_cast<bool>(out);
}

} // namespace ulecc
