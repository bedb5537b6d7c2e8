#include "exp/grid_spec.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "core/experiment.hpp"
#include "core/names.hpp"

namespace lapses
{

namespace
{

std::string
trim(const std::string& s)
{
    std::size_t begin = s.find_first_not_of(" \t");
    if (begin == std::string::npos)
        return "";
    std::size_t end = s.find_last_not_of(" \t");
    return s.substr(begin, end - begin + 1);
}

std::vector<std::string>
splitList(const std::string& s, char sep)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        std::size_t next = s.find(sep, pos);
        if (next == std::string::npos)
            next = s.size();
        const std::string part = trim(s.substr(pos, next - pos));
        if (!part.empty())
            parts.push_back(part);
        pos = next + 1;
    }
    return parts;
}

// Axis value parsers: the shared checked parsers (core/experiment),
// specialized with the axis name in the error message. Overflow and
// sign-wrap garbage ("fault-seed=-1") are rejected, not clamped.
int
parseInt(const std::string& axis, const std::string& value)
{
    return parseCheckedInt(axis, value,
                           std::numeric_limits<int>::min(),
                           std::numeric_limits<int>::max());
}

std::uint64_t
parseU64(const std::string& axis, const std::string& value)
{
    return parseCheckedU64(axis, value);
}

/** One load token: a plain number or a LO:HI:STEP range. */
void
appendLoads(const std::string& value, std::vector<double>& loads)
{
    if (appendLoadRange(value, "load range", loads))
        return;
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || v <= 0.0)
        throw ConfigError("bad load value '" + value + "'");
    loads.push_back(v);
}

} // namespace

bool
appendLoadRange(const std::string& spec, const std::string& what,
                std::vector<double>& loads)
{
    double lo = 0.0;
    double hi = 0.0;
    double step = 0.0;
    if (std::sscanf(spec.c_str(), "%lf:%lf:%lf", &lo, &hi, &step) != 3)
        return false;
    if (step <= 0.0 || lo <= 0.0 || hi < lo)
        throw ConfigError("bad " + what + " '" + spec +
                          "' (want LO:HI:STEP)");
    for (double x = lo; x <= hi + 1e-9; x += step)
        loads.push_back(x);
    return true;
}

void
applyGridSpec(const std::string& spec, CampaignGrid& grid)
{
    CampaignAxes& axes = grid.axes;
    for (const std::string& clause : splitList(spec, ';')) {
        const std::size_t eq = clause.find('=');
        if (eq == std::string::npos)
            throw ConfigError("bad grid clause '" + clause +
                              "' (want axis=value[,value...])");
        const std::string axis = trim(clause.substr(0, eq));
        const std::vector<std::string> values =
            splitList(clause.substr(eq + 1), ',');
        if (values.empty())
            throw ConfigError("grid axis '" + axis + "' has no values");
        for (const std::string& v : values) {
            if (axis == "topology") {
                axes.topologies.push_back(parseTopologySpec(axis, v));
            } else if (axis == "model") {
                axes.models.push_back(parseRouterModel(v));
            } else if (axis == "routing") {
                axes.routings.push_back(parseRoutingAlgo(v));
            } else if (axis == "table") {
                axes.tables.push_back(parseTableKind(v));
            } else if (axis == "selector") {
                axes.selectors.push_back(parseSelectorKind(v));
            } else if (axis == "traffic") {
                axes.traffics.push_back(parseTrafficKind(v));
            } else if (axis == "injection") {
                axes.injections.push_back(parseInjectionKind(v));
            } else if (axis == "msglen") {
                axes.msgLens.push_back(parseInt(axis, v));
            } else if (axis == "vcs") {
                axes.vcCounts.push_back(parseInt(axis, v));
            } else if (axis == "buffers") {
                axes.bufferDepths.push_back(parseInt(axis, v));
            } else if (axis == "escape") {
                axes.escapeVcs.push_back(parseInt(axis, v));
            } else if (axis == "faults") {
                const int count = parseInt(axis, v);
                if (count < 0) {
                    throw ConfigError("bad faults value '" + v +
                                      "' (want >= 0)");
                }
                axes.faultCounts.push_back(count);
            } else if (axis == "fault-seed") {
                axes.faultSeeds.push_back(parseU64(axis, v));
            } else if (axis == "telemetry-window") {
                axes.telemetryWindows.push_back(parseU64(axis, v));
            } else if (axis == "workload") {
                axes.workloads.push_back(parseWorkloadKind(v));
            } else if (axis == "load") {
                appendLoads(v, axes.loads);
            } else {
                throw ConfigError(
                    "unknown grid axis '" + axis +
                    "' (want topology|model|routing|table|selector|"
                    "traffic|injection|msglen|vcs|buffers|escape|"
                    "faults|fault-seed|telemetry-window|workload|"
                    "load)");
            }
        }
    }
}

} // namespace lapses
