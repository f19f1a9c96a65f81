#include "branch/replay.hh"

#include "arch/tracer.hh"
#include "isa/opcodes.hh"

namespace specslice::branch
{

namespace
{

/** Predict, score and train one return or indirect target. */
void
replayTarget(PredictorClient &client, Addr pc, TargetKind kind,
             Addr actual, std::uint64_t &mispredicts)
{
    if (client.predictTarget(pc, kind) != actual)
        ++mispredicts;
    if (kind == TargetKind::Call)
        client.observeCall(pc + isa::instBytes);
    client.updateTarget(pc, kind, actual);
}

/** Classify one retired instruction and drive client with it. */
void
replayEvent(const arch::TraceEvent &ev, PredictorClient &client,
            ReplayStats &s)
{
    ++s.records;
    const isa::Instruction &si = *ev.inst;
    const Addr pc = ev.pc;
    if (si.isCondBranch()) {
        const bool taken = ev.result.taken;
        ++s.condBranches;
        if (taken)
            ++s.condTaken;
        if (client.predictCond(pc, si.target) != taken)
            ++s.condMispredicts;
        client.updateCond(pc, taken);
    } else if (si.isReturn()) {
        ++s.returns;
        replayTarget(client, pc, TargetKind::Return, ev.result.nextPc,
                     s.returnMispredicts);
    } else if (si.isIndirect()) {
        ++s.indirectBranches;
        if (si.isCall())
            ++s.calls;
        replayTarget(client, pc,
                     si.isCall() ? TargetKind::Call : TargetKind::Jump,
                     ev.result.nextPc, s.indirectMispredicts);
    } else if (si.traits().isUncondDirect) {
        if (si.isCall()) {
            ++s.calls;
            client.observeCall(pc + isa::instBytes);
        } else {
            ++s.uncondDirect;
        }
    } else if (si.op == isa::Opcode::Halt) {
        ++s.halts;
    } else if (si.isLoad()) {
        ++s.loads;
    } else if (si.isStore()) {
        ++s.stores;
    } else {
        ++s.others;
    }
}

} // namespace

ReplayStats
replayProgram(const isa::Program &program, Addr entry_pc,
              arch::MemoryImage &mem, std::uint64_t max_records,
              PredictorClient &client)
{
    ReplayStats s;
    arch::trace(program, entry_pc, mem, max_records,
                [&](const arch::TraceEvent &ev) {
                    replayEvent(ev, client, s);
                });
    client.report(s.clientCounters);
    return s;
}

check::Digest::Section
replaySection(const std::string &client, const ReplayStats &s)
{
    check::Digest::Section sec;
    sec.config = "replay-" + client;
    auto &c = sec.counters;
    c["records"] = s.records;
    c["cond_branches"] = s.condBranches;
    c["cond_taken"] = s.condTaken;
    c["cond_mispredicts"] = s.condMispredicts;
    c["indirect_branches"] = s.indirectBranches;
    c["indirect_mispredicts"] = s.indirectMispredicts;
    c["returns"] = s.returns;
    c["return_mispredicts"] = s.returnMispredicts;
    c["calls"] = s.calls;
    c["uncond_direct"] = s.uncondDirect;
    c["loads"] = s.loads;
    c["stores"] = s.stores;
    c["others"] = s.others;
    c["halts"] = s.halts;
    for (const auto &[key, value] : s.clientCounters)
        c["client." + key] = value;
    // Ratios are only emitted when the denominator is live: a NaN
    // placeholder would poison the exact diff for predictors that
    // never see that branch class.
    auto &ratios = sec.ratios;
    if (s.condBranches)
        ratios["cond_accuracy"] = s.condAccuracy();
    if (s.indirectBranches)
        ratios["indirect_accuracy"] =
            1.0 - static_cast<double>(s.indirectMispredicts) /
                      static_cast<double>(s.indirectBranches);
    if (s.returns)
        ratios["return_accuracy"] =
            1.0 - static_cast<double>(s.returnMispredicts) /
                      static_cast<double>(s.returns);
    return sec;
}

check::Digest
replayDigest(
    const std::string &workload, std::uint64_t records,
    std::uint64_t seed,
    const std::vector<std::pair<std::string, ReplayStats>> &sections)
{
    check::Digest d;
    d.workload = workload;
    d.insts = records;
    d.warmup = 0;
    d.seed = seed;
    d.width = 1;    // in-order replay: one record at a time
    d.threads = 1;  // single stream
    for (const auto &[client, stats] : sections)
        d.sections.push_back(replaySection(client, stats));
    return d;
}

} // namespace specslice::branch
