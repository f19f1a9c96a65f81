/**
 * @file
 * A dynamic (in-flight) instruction. The functional outcome is computed
 * at fetch for correct-path instructions (execute-at-fetch model); the
 * timing fields decide when that outcome becomes architecturally and
 * microarchitecturally visible.
 */

#ifndef SPECSLICE_CORE_DYNINST_HH
#define SPECSLICE_CORE_DYNINST_HH

#include <memory>
#include <vector>

#include "arch/exec.hh"
#include "arch/regfile.hh"
#include "branch/predictor_unit.hh"
#include "common/types.hh"
#include "isa/instruction.hh"

namespace specslice::core
{

/**
 * The trivially copyable part of a DynInst: everything a reused
 * window slot resets by plain assignment. Word-sized fields come
 * first and the flags last, so the struct has no interior padding.
 */
struct DynInstState
{
    SeqNum seq = invalidSeqNum;     ///< Von Neumann number
    Addr pc = invalidAddr;
    const isa::Instruction *si = nullptr;  ///< null for unmapped wrong path

    // Timing.
    Cycle fetchCycle = 0;
    Cycle eligibleAt = 0;   ///< earliest issue cycle (front-end depth)
    Cycle completeAt = 0;

    // Dependence tracking (timing only; values are functional).
    /** lastWriter value displaced by this inst (squash rollback). */
    SeqNum prevWriter = invalidSeqNum;
    unsigned pendingSrcs = 0;

    // Functional outcome (valid when !wrongPath).
    arch::ExecResult fx;

    // Branch bookkeeping.
    Addr predictedTarget = invalidAddr; ///< PC fetch followed after this
    std::uint64_t correlatorToken = 0;
    branch::SpecCheckpoint bpCheckpoint;
    branch::PredictContext bpCtx;

    // Slice bookkeeping.
    std::uint64_t pgiToken = 0;     ///< this is a PGI (slice thread)

    ThreadId thread = invalidThread;
    ThreadId forkedThread = invalidThread;  ///< fork point: thread forked
    bool wrongPath = false;
    bool sliceThread = false;
    bool issued = false;
    bool completed = false;
    bool setsLastWriter = false;
    bool isBranch = false;
    bool predictedTaken = false;
    bool usedCorrelator = false;        ///< direction overridden by slice
    bool pgiInvert = false;
};

/** A default DynInstState in read-only memory: copying it resets a
 *  slot with straight-line loads and stores, where assigning a
 *  DynInstState{} temporary first builds the temporary on the stack. */
inline constexpr DynInstState freshDynInstState{};

struct DynInst : DynInstState
{
    /** VN#s of in-flight consumers waiting on this result. */
    std::vector<SeqNum> dependents;
    /** Register state just after this branch (late-binding reversal). */
    std::unique_ptr<arch::RegFile> regCheckpointAfter;

    /**
     * Make this a fresh instruction with VN# @p s, as if
     * default-constructed, except that dependents keeps its capacity.
     */
    void
    reuse(SeqNum s)
    {
        static_cast<DynInstState &>(*this) = freshDynInstState;
        seq = s;
        dependents.clear();
        regCheckpointAfter.reset();
    }
};

} // namespace specslice::core

#endif // SPECSLICE_CORE_DYNINST_HH
