/**
 * @file
 * The campaign pipeline as the benchmark drives it: netlist text to a
 * ready campaign (set-up), plus re-compositions of the combinational
 * and sequential campaigns from the sim and engine layers' public
 * calls, each call wrapped in a span. The traced run uses these
 * re-compositions in place of the one-call campaign entry points so
 * the campaign interval splits into layers; their verdict digests
 * must equal the one-call campaign's, so they do the same work.
 */

#ifndef PERFBENCH_PIPELINE_HH
#define PERFBENCH_PIPELINE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fault/campaign.hh"
#include "fault/collapse.hh"
#include "fault/seq_campaign.hh"
#include "netlist/netlist.hh"
#include "sim/batch_sim.hh"
#include "sim/flat.hh"
#include "sim/seq_batch_sim.hh"

namespace perfbench
{

/** FNV-1a 64 of a verdict JSON without its "lanes" and "simd" lines:
 *  those name the kernel configuration that ran, which the reference
 *  deliberately varies; every other byte is the verdict. */
std::uint64_t verdictDigest(const std::string &verdictJson);

/** A hardened combinational circuit ready for campaigns. */
struct CombSetup
{
    scal::netlist::Netlist net;
    std::vector<scal::netlist::Fault> faults;
    std::unique_ptr<scal::sim::FlatNetlist> flat;
    scal::fault::CollapseResult col;
    std::unique_ptr<scal::sim::FaultBatchPlan> plan;
};

/** A hardened sequential machine ready for campaigns. */
struct SeqSetup
{
    scal::netlist::Netlist net;
    scal::fault::SeqCampaignSpec spec;
    std::unique_ptr<scal::sim::FlatNetlist> flat;
    scal::fault::CollapseResult col;
    std::vector<scal::sim::SeqFaultSite> sites; ///< per unpruned class
    std::vector<int> siteRep;                   ///< site -> class
    scal::sim::SeqBatchPlan plan;
};

/** Set-up of a combinational campaign: import, harden, verify,
 *  flatten, collapse, plan (spans ingest.*, sim.flat_compile,
 *  fault.collapse, sim.batch_plan). */
std::unique_ptr<CombSetup> setupComb(const std::string &text);

/** Set-up of a sequential campaign: import, harden, verify, flatten,
 *  collapse, decode sites and plan lane batches (sim.seq_plan). */
std::unique_ptr<SeqSetup> setupSeq(const std::string &text);

/** Deterministic work counts of one traced campaign. */
struct CombCounts
{
    int classes = 0, pruned = 0, flip = 0, cpt = 0, sim = 0;
    std::uint64_t batchesPerBlock = 0;
};

struct SeqCounts
{
    long batches = 0, members = 0, groupsPerBatch = 0;
    long periodsSimulated = 0, retiredEarly = 0, sites = 0;
};

/**
 * The combinational campaign re-composed from FlatNetlist,
 * collapseFaults, FaultBatchPlan, FaultSimulator::setAlternatingBlock
 * and BatchClassifier::classifyBlock on the engine's weighted chunks;
 * same result as fault::runAlternatingCampaign at @p opts (fault-
 * parallel defaults). Returns the verdict JSON.
 */
std::string tracedCombCampaign(const scal::netlist::Netlist &net,
                               const scal::fault::CampaignOptions &opts,
                               CombCounts *counts);

/**
 * The lane-batched sequential campaign re-composed from SeqGoodTrace,
 * planSeqBatches and SeqFaultBatchSimulator on the engine's weighted
 * chunks (no hot-state memo, as a context-free
 * fault::runSequentialCampaign). Returns the verdict JSON.
 */
std::string tracedSeqCampaign(const scal::netlist::Netlist &net,
                              const scal::fault::SeqCampaignSpec &spec,
                              const scal::fault::SeqCampaignOptions &opts,
                              SeqCounts *counts);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_HH
