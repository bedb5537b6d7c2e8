/**
 * @file
 * The campaign-definition half of the CLI surface, shared by
 * lapses-campaign (which executes a campaign) and lapses-merge (which
 * must expand the *identical* campaign to validate and reassemble
 * shard files). Both tools accept the same --grid/--seed/base-config
 * flags, so a merge invocation is the campaign invocation with the
 * execution flags swapped for merge flags. The base-config flags are
 * lapses-sim's run flags too (applySimConfigFlag).
 */

#ifndef LAPSES_EXP_CAMPAIGN_CLI_HPP
#define LAPSES_EXP_CAMPAIGN_CLI_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "exp/campaign.hpp"

namespace lapses
{

/**
 * Apply one run-configuration flag (--mesh, --vcs, --load, --faults,
 * --mode, ...: the flags simConfigFlagsHelp() lists) to cfg, advancing
 * i past its value argument. Returns false, leaving i untouched, when
 * argv[i] is not one of them. Throws ConfigError on a malformed or
 * missing value. lapses-sim and every campaign tool parse these flags
 * here; each keeps its own --seed.
 */
bool applySimConfigFlag(SimConfig& cfg, int argc, char** argv, int& i);

/** Campaign definition accumulated from shared CLI flags. */
struct CampaignCli
{
    SimConfig base;
    std::vector<std::string> gridSpecs;
    std::uint64_t campaignSeed = 1;

    /**
     * Try to consume argv[i] (advancing i past any value argument):
     * --grid, --seed (the campaign seed) or a run-configuration flag
     * applied to base. Returns false when the flag is none of these,
     * leaving i untouched for the caller's own flags. Throws
     * ConfigError on a malformed value or a missing value argument.
     */
    bool consume(int argc, char** argv, int& i);

    /** The declared grids (one single-run grid when none was given). */
    std::vector<CampaignGrid> grids() const;

    /** expandGrids(grids()): the campaign's runs, globally numbered. */
    std::vector<CampaignRun> runs() const;
};

/** Help text for --grid and --seed, the campaign-definition flags. */
const char* campaignCliHelp();

/** Help text for the run-configuration flags of applySimConfigFlag,
 *  printed by every tool that accepts them. */
const char* simConfigFlagsHelp();

} // namespace lapses

#endif // LAPSES_EXP_CAMPAIGN_CLI_HPP
