#include "exp/result_sink.hpp"

#include <cctype>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>
#include <unordered_set>

#include "core/names.hpp"
#include "stats/report.hpp"

namespace lapses
{

std::string
meshName(const SimConfig& cfg)
{
    // Non-mesh fabrics carry their shape in the topology token; the
    // radices would be stale defaults here.
    if (!cfg.topology.isMeshKind())
        return cfg.topology.str();
    std::string s;
    for (std::size_t i = 0; i < cfg.radices.size(); ++i) {
        if (i)
            s += 'x';
        s += std::to_string(cfg.radices[i]);
    }
    if (cfg.torus)
        s += " torus";
    return s;
}

std::string
topologyName(const SimConfig& cfg)
{
    return cfg.resolvedTopology().str();
}

namespace
{

std::string
jsonCoordinates(const CampaignRun& run)
{
    const SimConfig& cfg = run.config;
    std::ostringstream os;
    os << "\"run\":" << run.index << ",\"series\":" << run.series
       << ",\"mesh\":\"" << meshName(cfg)
       << "\",\"topology\":\"" << topologyName(cfg)
       << "\",\"model\":\"" << routerModelName(cfg.model)
       << "\",\"routing\":\"" << routingAlgoName(cfg.routing)
       << "\",\"table\":\"" << tableKindName(cfg.table)
       << "\",\"selector\":\"" << selectorKindName(cfg.selector)
       << "\",\"traffic\":\"" << trafficKindName(cfg.traffic)
       << "\",\"injection\":\"" << injectionKindName(cfg.injection)
       << "\",\"msglen\":" << cfg.msgLen << ",\"vcs\":" << cfg.vcsPerPort
       << ",\"buffers\":" << cfg.bufferDepth
       << ",\"escape_vcs\":" << cfg.escapeVcs
       << ",\"faults\":" << cfg.faultCount
       << ",\"fault_seed\":" << cfg.faultSeed
       << ",\"telemetry_window\":" << cfg.telemetryWindow
       << ",\"workload\":\"" << workloadKindName(cfg.workload)
       << "\",\"load\":" << cfg.normalizedLoad
       << ",\"seed\":" << cfg.seed
       << ",\"warmup\":" << cfg.warmupMessages
       << ",\"measure\":" << cfg.measureMessages;
    return os.str();
}

std::string
csvCoordinates(const CampaignRun& run)
{
    const SimConfig& cfg = run.config;
    std::ostringstream os;
    os << run.index << ',' << run.series << ','
       << csvEscape(meshName(cfg)) << ','
       << csvEscape(topologyName(cfg)) << ','
       << csvEscape(routerModelName(cfg.model)) << ','
       << csvEscape(routingAlgoName(cfg.routing)) << ','
       << csvEscape(tableKindName(cfg.table)) << ','
       << csvEscape(selectorKindName(cfg.selector)) << ','
       << csvEscape(trafficKindName(cfg.traffic)) << ','
       << csvEscape(injectionKindName(cfg.injection)) << ','
       << cfg.msgLen << ',' << cfg.vcsPerPort << ','
       << cfg.bufferDepth << ',' << cfg.escapeVcs << ','
       << cfg.faultCount << ',' << cfg.faultSeed << ','
       << cfg.telemetryWindow << ','
       << csvEscape(workloadKindName(cfg.workload)) << ','
       << cfg.normalizedLoad << ',' << cfg.seed << ','
       << cfg.warmupMessages << ',' << cfg.measureMessages;
    return os.str();
}

} // namespace

std::string
runResultJson(const RunResult& result)
{
    return '{' + jsonCoordinates(result.run) + ',' +
           statsJsonFields(result.stats) + '}';
}

std::string
campaignCsvHeader()
{
    return "run,series,mesh,topology,model,routing,table,selector,"
           "traffic,"
           "injection,msglen,vcs,buffers,escape_vcs,faults,fault_seed,"
           "telemetry_window,workload,load,seed,warmup,measure," +
           statsCsvHeader();
}

std::string
runResultCsvRow(const RunResult& result)
{
    return csvCoordinates(result.run) + ',' +
           statsToCsvRow(result.stats);
}

std::string
runRecordPrefix(const CampaignRun& run, SinkFormat format)
{
    return format == SinkFormat::Jsonl
               ? '{' + jsonCoordinates(run) + ','
               : csvCoordinates(run) + ',';
}

void
JsonlSink::write(const RunResult& result)
{
    os_ << runResultJson(result) << '\n';
    os_.flush(); // one durable record per run: kill-safe, resumable
}

void
JsonlSink::flush()
{
    os_.flush();
}

void
CsvSink::write(const RunResult& result)
{
    if (write_header_) {
        os_ << campaignCsvHeader() << '\n';
        write_header_ = false;
    }
    os_ << runResultCsvRow(result) << '\n';
    os_.flush();
}

void
CsvSink::flush()
{
    os_.flush();
}

namespace
{

/** Parse the digits after `pos`; false when none are there. */
bool
parseIndexAt(const std::string& line, std::size_t pos,
             std::size_t& out)
{
    if (pos >= line.size() ||
        !std::isdigit(static_cast<unsigned char>(line[pos])))
        return false;
    out = std::strtoull(line.c_str() + pos, nullptr, 10);
    return true;
}

ResumeState
scanResume(std::istream& is, SinkFormat format)
{
    ResumeState state;
    std::string line;
    while (std::getline(is, line)) {
        // Anything but a complete record — one the kill cut short, the
        // CSV header — is skipped; the campaign re-runs that point.
        const RecordLine rec = readRecordLine(line, format);
        if (rec.kind != RecordLine::Kind::Complete)
            continue;
        state.completed.insert(rec.index);
        if (rec.saturated)
            state.saturated.insert(rec.index);
        state.records.emplace(rec.index, line);
    }
    return state;
}

} // namespace

RecordLine
readRecordLine(const std::string& line, SinkFormat format)
{
    RecordLine rec;
    if (format == SinkFormat::Jsonl) {
        // A record the kill cut short has no closing brace.
        if (line.empty() || line.front() != '{' || line.back() != '}')
            return rec;
        const std::size_t run_key = line.find("\"run\":");
        if (run_key == std::string::npos ||
            !parseIndexAt(line, run_key + 6, rec.index)) {
            rec.kind = RecordLine::Kind::NoIndex;
            return rec;
        }
        rec.saturated =
            line.find("\"saturated\":true") != std::string::npos;
    } else {
        if (!parseIndexAt(line, 0, rec.index)) {
            rec.kind = RecordLine::Kind::NoIndex;
            return rec;
        }
        // A complete row ends in the saturated cell.
        const std::size_t comma = line.rfind(',');
        const std::string tail =
            comma == std::string::npos ? "" : line.substr(comma + 1);
        if (tail != "true" && tail != "false")
            return rec;
        rec.saturated = tail == "true";
    }
    rec.kind = RecordLine::Kind::Complete;
    return rec;
}

ResumeState
scanResumeJsonl(std::istream& is)
{
    return scanResume(is, SinkFormat::Jsonl);
}

ResumeState
scanResumeCsv(std::istream& is)
{
    return scanResume(is, SinkFormat::Csv);
}

void
validateResume(const ResumeState& state,
               const std::vector<CampaignRun>& runs, SinkFormat format,
               const ShardSpec& shard)
{
    std::unordered_set<std::size_t> known;
    known.reserve(runs.size());
    for (const CampaignRun& run : runs)
        known.insert(run.index);
    for (std::size_t index : state.completed) {
        if (known.count(index) == 0) {
            throw ConfigError(
                "resume record for run " + std::to_string(index) +
                " is not part of this campaign (different grid?); "
                "remove the output file or rerun with the original "
                "campaign");
        }
        if (!shard.owns(index)) {
            throw ConfigError(
                "resume record for run " + std::to_string(index) +
                " is outside shard " + shard.str() +
                " (was the file written with a different --shard?); "
                "resume it with the original shard spec or merge the "
                "shards first");
        }
    }
    for (const CampaignRun& run : runs) {
        auto it = state.records.find(run.index);
        if (it == state.records.end())
            continue;
        // The record's coordinate section is deterministic, so the
        // expected prefix must match byte-for-byte.
        const std::string prefix = runRecordPrefix(run, format);
        if (it->second.compare(0, prefix.size(), prefix) != 0) {
            throw ConfigError(
                "resume record for run " + std::to_string(run.index) +
                " does not match this campaign (grid or --seed "
                "changed?); remove the output file or rerun with the "
                "original campaign");
        }
    }
}

} // namespace lapses
