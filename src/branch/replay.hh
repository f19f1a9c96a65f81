/**
 * @file
 * In-order predictor replay: stream a program's retired instructions
 * (arch::trace) through a PredictorClient and score it, CVP-harness
 * style. The replay digest (.rdigest) reuses the check::Digest
 * container — same parser, same formatter, same exact-counter diff —
 * with one section per predictor, so golden replay accuracy is gated
 * exactly like golden execution stats. The .rdigest extension keeps
 * these out of golden_lint's execution-digest sweep (replay digests
 * have no baseline/slices sections to lint).
 */

#ifndef SPECSLICE_BRANCH_REPLAY_HH
#define SPECSLICE_BRANCH_REPLAY_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "arch/memimg.hh"
#include "branch/predictor_client.hh"
#include "check/digest.hh"
#include "isa/program.hh"

namespace specslice::branch
{

/** What replaying one retired stream through one client produced. */
struct ReplayStats
{
    std::uint64_t records = 0;  ///< retired instructions replayed
    std::uint64_t condBranches = 0;
    std::uint64_t condTaken = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t indirectBranches = 0;  ///< jumps + indirect calls
    std::uint64_t indirectMispredicts = 0;
    std::uint64_t returns = 0;
    std::uint64_t returnMispredicts = 0;
    std::uint64_t calls = 0;  ///< direct + indirect
    std::uint64_t uncondDirect = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t others = 0;
    std::uint64_t halts = 0;
    /** Client-specific counters from PredictorClient::report(). */
    std::map<std::string, std::uint64_t> clientCounters;

    double
    condAccuracy() const
    {
        return condBranches ? 1.0 - static_cast<double>(condMispredicts) /
                                        static_cast<double>(condBranches)
                            : 0.0;
    }
};

/**
 * Execute program from entry_pc over mem (which it mutates) for up to
 * max_records retired instructions, driving client with each one in
 * retirement order per the PredictorClient contract.
 */
ReplayStats replayProgram(const isa::Program &program, Addr entry_pc,
                          arch::MemoryImage &mem,
                          std::uint64_t max_records,
                          PredictorClient &client);

/** One digest section of exact counters and accuracy ratios. */
check::Digest::Section replaySection(const std::string &client,
                                     const ReplayStats &stats);

/**
 * Package per-client results as a replay digest: records is the
 * record budget the run was given, seed the workload's data seed.
 * Diffable with check::diffDigests.
 */
check::Digest replayDigest(
    const std::string &workload, std::uint64_t records,
    std::uint64_t seed,
    const std::vector<std::pair<std::string, ReplayStats>> &sections);

} // namespace specslice::branch

#endif // SPECSLICE_BRANCH_REPLAY_HH
