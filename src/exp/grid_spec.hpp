/**
 * @file
 * Textual campaign-grid specs for the lapses-campaign CLI:
 *
 *   model=proud,la-proud; routing=xy,duato; traffic=uniform,transpose;
 *   load=0.1:0.8:0.1; msglen=4,20
 *
 * Semicolon-separated `axis=value[,value...]` clauses; values use the
 * identifiers core/names.hpp parses. The load axis additionally
 * accepts LO:HI:STEP ranges (mixable with plain values). Whitespace
 * around clauses, keys and values is ignored.
 */

#ifndef LAPSES_EXP_GRID_SPEC_HPP
#define LAPSES_EXP_GRID_SPEC_HPP

#include <string>
#include <vector>

#include "exp/campaign.hpp"

namespace lapses
{

/**
 * Parse a grid spec into grid.axes (appending to any values already
 * there). Accepted axes: topology, model, routing, table, selector,
 * traffic, injection, msglen, vcs, buffers, escape, faults,
 * fault-seed, telemetry-window, workload, load. Throws ConfigError on
 * an unknown axis or a malformed value.
 */
void applyGridSpec(const std::string& spec, CampaignGrid& grid);

/**
 * Append the loads of a LO:HI:STEP range (the load axis's range form,
 * and lapses-sim's --sweep): lo, lo + step, ... up to hi. Returns
 * false, appending nothing, when spec does not start with three
 * ':'-separated numbers. Throws ConfigError("bad <what> '<spec>' (want
 * LO:HI:STEP)") when they are not a range (lo > 0, step > 0, hi >= lo).
 */
bool appendLoadRange(const std::string& spec, const std::string& what,
                     std::vector<double>& loads);

} // namespace lapses

#endif // LAPSES_EXP_GRID_SPEC_HPP
