#include "sim/run_key.hh"

#include <algorithm>
#include <sstream>

#include "arch/checkpoint.hh"
#include "common/failure.hh"
#include "common/hash.hh"
#include "sim/result_json.hh"

namespace specslice::sim
{

namespace
{

class KeyWriter
{
  public:
    void
    put(const char *name, std::uint64_t v)
    {
        os_ << name << " = " << v << "\n";
    }

    void
    put(const char *name, const std::string &v)
    {
        // Length-prefix strings so adjacent fields can't alias
        // ("ab"+"c" vs "a"+"bc").
        os_ << name << " = " << v.size() << ":" << v << "\n";
    }

    void
    putBool(const char *name, bool v)
    {
        os_ << name << " = " << (v ? 1 : 0) << "\n";
    }

    /** Sorted, so unordered-set iteration order can't leak in. */
    void
    putPcSet(const char *name, const std::unordered_set<Addr> &pcs)
    {
        std::vector<Addr> sorted(pcs.begin(), pcs.end());
        std::sort(sorted.begin(), sorted.end());
        os_ << name << " =";
        for (Addr pc : sorted)
            os_ << " " << pc;
        os_ << "\n";
    }

    std::string text() const { return os_.str(); }

  private:
    std::ostringstream os_;
};

void
writeConfig(KeyWriter &w, const MachineConfig &c)
{
    w.put("config.num_threads", c.numThreads);
    w.put("config.fetch_width", c.fetchWidth);
    w.put("config.issue_width", c.issueWidth);
    w.put("config.retire_width", c.retireWidth);
    w.put("config.window_size", c.windowSize);
    w.put("config.front_end_depth", c.frontEndDepth);
    w.put("config.num_int_alu", c.numIntAlu);
    w.put("config.num_mem_ports", c.numMemPorts);
    w.put("config.num_complex", c.numComplex);
    w.put("config.num_fp", c.numFp);
    w.put("config.main_thread_fetch_bias",
          static_cast<std::uint64_t>(
              static_cast<std::int64_t>(c.mainThreadFetchBias)));
    w.putBool("config.slices_enabled", c.slicesEnabled);
    w.putBool("config.terminate_dead_slices", c.terminateDeadSlices);
    w.putBool("config.late_reversals", c.lateReversalsEnabled);
    w.putBool("config.fork_confidence_gating", c.forkConfidenceGating);
    w.putBool("config.dedicated_slice_resources",
              c.dedicatedSliceResources);

    w.put("config.predictor.yags.choice_entries",
          c.predictor.yags.choiceEntries);
    w.put("config.predictor.yags.cache_entries",
          c.predictor.yags.cacheEntries);
    w.put("config.predictor.yags.tag_bits", c.predictor.yags.tagBits);
    w.put("config.predictor.yags.history_bits",
          c.predictor.yags.historyBits);
    w.put("config.predictor.indirect.stage1_entries",
          c.predictor.indirect.stage1Entries);
    w.put("config.predictor.indirect.stage2_entries",
          c.predictor.indirect.stage2Entries);
    w.put("config.predictor.indirect.tag_bits",
          c.predictor.indirect.tagBits);
    w.put("config.predictor.indirect.path_bits",
          c.predictor.indirect.pathBits);
    w.put("config.predictor.ras_entries", c.predictor.rasEntries);
    w.put("config.predictor.history_bits", c.predictor.historyBits);
    w.put("config.predictor.path_bits", c.predictor.pathBits);

    w.put("config.memory.l1i_size", c.memory.l1iSize);
    w.put("config.memory.l1i_assoc", c.memory.l1iAssoc);
    w.put("config.memory.l1i_line_size", c.memory.l1iLineSize);
    w.put("config.memory.l1d_size", c.memory.l1dSize);
    w.put("config.memory.l1d_assoc", c.memory.l1dAssoc);
    w.put("config.memory.l1d_line_size", c.memory.l1dLineSize);
    w.put("config.memory.l1_latency", c.memory.l1Latency);
    w.put("config.memory.l2_size", c.memory.l2Size);
    w.put("config.memory.l2_assoc", c.memory.l2Assoc);
    w.put("config.memory.l2_line_size", c.memory.l2LineSize);
    w.put("config.memory.l2_latency", c.memory.l2Latency);
    w.put("config.memory.mem_latency", c.memory.memLatency);
    w.put("config.memory.mem_bus_occupancy", c.memory.memBusOccupancy);
    w.put("config.memory.pv_buf_entries", c.memory.pvBufEntries);
    w.put("config.memory.write_buf_entries", c.memory.writeBufEntries);
    w.put("config.memory.prefetch_streams", c.memory.prefetchStreams);
    w.put("config.memory.prefetch_degree", c.memory.prefetchDegree);
    w.putBool("config.memory.sequential_prefetch",
              c.memory.sequentialPrefetch);
    w.putBool("config.memory.prefetcher_enabled",
              c.memory.prefetcherEnabled);

    w.put("config.correlator.entries", c.correlator.entries);
    w.put("config.correlator.preds_per_branch",
          c.correlator.predsPerBranch);
    w.put("config.slice_table.slice_entries",
          c.sliceTable.sliceEntries);
    w.put("config.slice_table.pgi_entries", c.sliceTable.pgiEntries);
}

void
writeOptions(KeyWriter &w, const RunOptions &o)
{
    w.put("opts.max_main_instructions", o.maxMainInstructions);
    w.put("opts.max_cycles", o.maxCycles);
    w.put("opts.watchdog_cycles", o.watchdogCycles);
    w.putBool("opts.watchdog_enabled", o.watchdogEnabled);
    w.put("opts.faults", o.faults.describe());
    w.put("opts.faults_seed", o.faults.seed);
    w.put("opts.warmup_instructions", o.warmupInstructions);

    w.putBool("opts.perfect.all_branches", o.perfect.allBranchesPerfect);
    w.putBool("opts.perfect.all_loads", o.perfect.allLoadsPerfect);
    w.putPcSet("opts.perfect.branch_pcs", o.perfect.branchPcs);
    w.putPcSet("opts.perfect.load_pcs", o.perfect.loadPcs);

    w.putBool("opts.profile", o.profile);
    w.put("opts.interval_cycles", o.intervalCycles);

    // The checker changes checkedRetired/checkDiverged in the payload
    // (and a fatal divergence aborts), so checking runs key apart
    // from unchecked ones. A caller-supplied external checker is not
    // canonicalizable — refuse rather than alias (handled by caller).
    w.putBool("opts.check", o.check);
    w.putBool("opts.check_fatal", o.checkFatal);
    w.put("opts.check_inject_reg_fault", o.checkInjectRegFault);
    w.put("opts.check_inject_store_fault", o.checkInjectStoreFault);

    // Injected architectural state: hash contents, not presence. A
    // null pointer and an empty vector are equivalent (no replay).
    {
        Sha256 h;
        if (o.initialRegs) {
            for (unsigned r = 0; r < isa::numRegs; ++r) {
                std::uint64_t v =
                    o.initialRegs->read(static_cast<RegIndex>(r));
                h.update(&v, sizeof(v));
            }
        }
        w.put("opts.initial_regs", o.initialRegs ? h.hex()
                                                 : std::string());
    }
    {
        Sha256 h;
        std::uint64_t n = 0;
        if (o.branchWarmth) {
            for (const arch::BranchWarmthRecord &r : *o.branchWarmth) {
                std::uint64_t rec[3] = {
                    r.pc, r.target,
                    (static_cast<std::uint64_t>(r.kind) << 1) |
                        (r.taken ? 1 : 0)};
                h.update(rec, sizeof(rec));
                ++n;
            }
        }
        w.put("opts.branch_warmth", n ? h.hex() : std::string());
    }
    {
        Sha256 h;
        std::uint64_t n = 0;
        if (o.memWarmth) {
            for (const arch::MemWarmthRecord &r : *o.memWarmth) {
                std::uint64_t rec[2] = {r.addr, r.isStore ? 1u : 0u};
                h.update(rec, sizeof(rec));
                ++n;
            }
        }
        w.put("opts.mem_warmth", n ? h.hex() : std::string());
    }
    {
        Sha256 h;
        std::uint64_t n = 0;
        if (o.instWarmth) {
            for (Addr pc : *o.instWarmth) {
                h.update(&pc, sizeof(pc));
                ++n;
            }
        }
        w.put("opts.inst_warmth", n ? h.hex() : std::string());
    }

    w.put("opts.fast_forward_instructions", o.fastForwardInstructions);
    w.put("opts.sample_regions", o.sampleRegions);
    w.put("opts.sample_stride", o.sampleStride);
    w.putBool("opts.warm_predictors", o.warmPredictors);
    w.putBool("opts.warm_caches", o.warmCaches);
    w.putBool("opts.warm_inst_cache", o.warmInstCache);
    // saveCheckpoint is a pure output path — it never changes the
    // simulated numbers — so it is deliberately excluded. A restore
    // is keyed by the checkpoint's *content* (not its path): the same
    // state restored from anywhere hits the same entry, and an edited
    // or regenerated checkpoint file misses instead of serving stale
    // numbers.
    {
        std::string restore;
        if (!o.restoreCheckpoint.empty()) {
            std::string err;
            restore = sha256FileHex(o.restoreCheckpoint, err);
            if (restore.empty())
                restore = "unreadable:" + o.restoreCheckpoint;
        }
        w.put("opts.restore_checkpoint_sha256", restore);
    }
}

} // namespace

std::string
canonicalKeyText(const RunKeyInputs &in)
{
    SS_ASSERT(in.workload && in.config && in.options,
              "run key needs workload, config, and options");
    // A run observed through an externally owned checker cannot be
    // keyed (the checker's configuration is invisible here); callers
    // wanting cached runs must use the opts.check flag instead.
    SS_ASSERT(!in.options->checker,
              "runs with an external checker are not cacheable");

    KeyWriter w;
    w.put("key_schema", std::uint64_t{1});
    w.put("result_schema", resultSchemaVersion);
    w.put("workload.name", in.workload->name);
    w.put("workload.scale", in.workload->scale);
    w.put("workload.entry", in.workload->entry);
    w.put("workload.seed", in.dataSeed);
    w.put("workload.program_fingerprint",
          arch::fingerprintProgram(in.workload->program));
    w.put("workload.slices", in.workload->slices.size());
    w.putBool("with_slices", in.withSlices);
    writeConfig(w, *in.config);
    writeOptions(w, *in.options);
    return w.text();
}

std::string
runCacheKey(const RunKeyInputs &in)
{
    Sha256 h;
    h.update(canonicalKeyText(in));
    h.update("binary:");
    h.update(binaryFingerprint());
    return h.hex();
}

std::string
checkpointCacheKey(const Workload &wl, std::uint64_t data_seed,
                   std::uint64_t fastforward)
{
    KeyWriter w;
    w.put("checkpoint_version",
          std::uint64_t{arch::checkpointVersion});
    w.put("workload.name", wl.name);
    w.put("workload.scale", wl.scale);
    w.put("workload.entry", wl.entry);
    w.put("workload.seed", data_seed);
    w.put("workload.program_fingerprint",
          arch::fingerprintProgram(wl.program));
    w.put("fastforward", fastforward);
    Sha256 h;
    h.update(w.text());
    h.update("binary:");
    h.update(binaryFingerprint());
    return h.hex().substr(0, 16);
}

} // namespace specslice::sim
