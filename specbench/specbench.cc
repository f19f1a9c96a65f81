/**
 * @file
 * The repository benchmark: host-time performance of the simulator on
 * two fixed sweeps of the 12 workloads, with every run's simulated
 * counters checked against committed expected digests.
 *
 *   specbench --workload timing_sliced|sampled [--seed N] --seconds S
 *             [--trace 0|1] --expected DIR [--trace-out FILE] [--tiny]
 *   specbench --workload W [--seed N] --expected DIR --write-expected
 *
 * --trace-out is required with --trace 1.
 *
 * --trace 0 repeats the sweep until S seconds are used and reports the
 * end-to-end metrics, with host times scaled to a reference host speed
 * (see HostSpeed). --trace 1 runs a traced sweep between two untraced
 * ones, plus isolated drives of single layers, records spans around every
 * layer call, writes them as Chrome trace-event JSON and reports the
 * per-layer metrics. The last stdout line is always one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 *
 * Only public entry points are called: workloads::buildWorkload,
 * sim::Simulator::run and, in the drives, arch::trace,
 * arch::FastForward::advance, branch::makePredictorClient("paper") and
 * mem::MemoryHierarchy::accessData/tick. See README.md for what each
 * workload is for and which end-to-end metric each layer metric moves.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/fastfwd.hh"
#include "arch/tracer.hh"
#include "branch/predictor_client.hh"
#include "check/digest.hh"
#include "common/failure.hh"
#include "common/jsonio.hh"
#include "mem/hierarchy.hh"
#include "sim/result_json.hh"
#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---------------------------------------------------------------
// Host-speed reference
// ---------------------------------------------------------------

/**
 * A fixed kernel, independent of the simulator, that measures how fast
 * the host core runs right now. The benchmark runs on a virtual machine
 * whose cores are shared with other tenants, and the speed at which a
 * core runs the simulator drifts by up to 1.8x over seconds to minutes.
 * The drift is not descheduling (thread CPU time matches wall time); it
 * moves with the kernel below, which keeps eight independent random-read
 * streams, data-dependent branches and stores in flight in an L1-sized
 * table: it measures how much of the core's issue width and L1 the
 * benchmark gets. Latency-bound kernels (pointer chases through L1-, L2-
 * or L3-sized rings) did not move with the simulator.
 *
 * The end-to-end run times each program run and set-up between two
 * kernel samples and scales it by kReferenceSeconds over their mean, so
 * its times are host seconds at the kernel's reference speed.
 */
class HostSpeed
{
  public:
    /** A typical time of one kernel pass on the host that defined the
     *  benchmark (4-vCPU Xeon VM, 2.1 GHz nominal), so scaled times
     *  read close to that host's wall-clock seconds. */
    static constexpr double kReferenceSeconds = 0.005;

    HostSpeed() : table_(kTableWords)
    {
        std::uint64_t x = 88172645463325252ull;
        for (std::uint64_t &w : table_)
            w = x = xorshift(x);
        sample();  // fault the table in
    }

    /** Time one pass of the kernel, in seconds. */
    double
    sample()
    {
        const auto t0 = Clock::now();
        std::uint64_t stream[kStreams];
        for (unsigned k = 0; k < kStreams; ++k)
            stream[k] = k + 1;
        std::uint64_t c = 3, d = 4;
        for (unsigned i = 0; i < kSteps; ++i) {
            std::uint64_t u = 0, v = 0;
            for (unsigned k = 0; k < kStreams; ++k) {
                stream[k] = xorshift(stream[k]);
                const std::uint64_t w = table_[stream[k] & kMask];
                if (k & 1)
                    v ^= w;
                else
                    u += w;
            }
            if (u & 1)
                c += v;
            else
                d ^= u;
            if ((v >> 7) & 1)
                table_[(c ^ d) & kMask] = u + v;
        }
        sink_ = sink_ + (c ^ d);  // keeps the loop observable
        return secondsSince(t0);
    }

    /** kReferenceSeconds over the mean of two samples. */
    static double
    scale(double before, double after)
    {
        return kReferenceSeconds / (0.5 * (before + after));
    }

  private:
    static constexpr std::size_t kTableWords = 4096;  // 32 KiB
    static constexpr std::size_t kMask = kTableWords - 1;
    static constexpr unsigned kStreams = 8;
    static constexpr unsigned kSteps = 240'000;

    static std::uint64_t
    xorshift(std::uint64_t x)
    {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    }

    std::vector<std::uint64_t> table_;
    volatile std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

/** Both workloads run with speculative slices on; digest sections and
 *  span args name the configuration after that. */
constexpr const char *kConfig = "slices";

/** One benchmark workload: how every program in the sweep is run. */
struct Spec
{
    std::string name;
    std::uint64_t insts = 0;      ///< measured insts (per region)
    std::uint64_t warmup = 0;     ///< timing warm-up (per region)
    std::uint64_t ff = 0;         ///< fast-forward before region 1
    unsigned regions = 0;         ///< 0 = one unsampled run
    std::uint64_t stride = 0;     ///< insts between region starts
    std::uint64_t driveInsts = 0; ///< isolated-drive stream length

    /** Instructions the program must be able to execute. */
    std::uint64_t
    span() const
    {
        const std::uint64_t per_region = insts + warmup;
        return ff + (std::max(1u, regions) - 1) * stride + per_region;
    }

    sim::RunOptions
    options() const
    {
        sim::RunOptions o;
        o.maxMainInstructions = insts;
        o.warmupInstructions = warmup;
        o.fastForwardInstructions = ff;
        o.sampleRegions = regions;
        o.sampleStride = stride;
        return o;
    }
};

/**
 * The two workloads. timing_sliced is ROADMAP's headline sweep (300K
 * measured + 100K warm-up per program). sampled spends most of its time
 * in the functional fast-forward and region set-up, where the timing
 * core does little.
 */
std::vector<Spec>
allSpecs(bool tiny)
{
    Spec sliced{.name = "timing_sliced",
                .insts = 300'000,
                .warmup = 100'000,
                .driveInsts = 400'000};
    Spec sampled{.name = "sampled",
                 .insts = 25'000,
                 .warmup = 10'000,
                 .ff = 20'000'000,
                 .regions = 4,
                 .stride = 1'000'000,
                 .driveInsts = 400'000};
    if (tiny) {
        sliced.insts = 4'000;
        sliced.warmup = 1'000;
        sliced.driveInsts = 5'000;
        sampled.insts = 2'000;
        sampled.warmup = 1'000;
        sampled.ff = 50'000;
        sampled.regions = 2;
        sampled.stride = 20'000;
        sampled.driveInsts = 5'000;
    }
    return {sliced, sampled};
}

// ---------------------------------------------------------------
// Spans (traced run only)
// ---------------------------------------------------------------

struct Span
{
    std::string name;
    double start = 0.0;  ///< seconds since the recorder's epoch
    double end = 0.0;
    int parent = -1;     ///< index into Recorder::spans, -1 = root
    std::string program;
    std::string config;
};

/** In-memory span store; spans are written out once, at exit. */
class Recorder
{
  public:
    std::vector<Span> spans;

    double now() const { return secondsSince(epoch_); }

    int
    open(const std::string &name, const std::string &program,
         const std::string &config)
    {
        Span s;
        s.name = name;
        s.program = program;
        s.config = config;
        s.parent = stack_.empty() ? -1 : stack_.back();
        spans.push_back(std::move(s));
        stack_.push_back(static_cast<int>(spans.size()) - 1);
        spans.back().start = now();
        return stack_.back();
    }

    void
    close(int id)
    {
        spans[id].end = now();
        stack_.pop_back();
    }

    /** Self time per layer: each span's duration minus its children's,
     *  summed by the span name's first dotted component. */
    std::map<std::string, double>
    selfTimes() const
    {
        std::vector<double> self(spans.size());
        for (std::size_t i = 0; i < spans.size(); ++i)
            self[i] = spans[i].end - spans[i].start;
        for (const Span &s : spans)
            if (s.parent >= 0)
                self[s.parent] -= s.end - s.start;
        std::map<std::string, double> out;
        for (std::size_t i = 0; i < spans.size(); ++i)
            out[spans[i].name.substr(0, spans[i].name.find('.'))] +=
                self[i];
        return out;
    }

    /** Chrome trace-event JSON, the shape obs::EventBuffer writes. */
    void
    write(std::ostream &os) const
    {
        os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            char ts[64];
            std::snprintf(ts, sizeof(ts),
                          "\"ts\": %.3f, \"dur\": %.3f", s.start * 1e6,
                          (s.end - s.start) * 1e6);
            json::JsonObject args;
            args.field("id", std::uint64_t{i})
                .raw("parent", std::to_string(s.parent));
            if (!s.program.empty())
                args.field("program", s.program);
            if (!s.config.empty())
                args.field("config", s.config);
            os << "{\"name\": \"" << json::jsonEscape(s.name)
               << "\", \"cat\": \""
               << json::jsonEscape(s.name.substr(0, s.name.find('.')))
               << "\", \"ph\": \"X\", " << ts
               << ", \"pid\": 1, \"tid\": 1, \"args\": " << args.str()
               << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
        }
        os << "]}\n";
    }

  private:
    Clock::time_point epoch_ = Clock::now();
    std::vector<int> stack_;
};

/** RAII span; a null recorder makes it a no-op (tracing off). */
class Scope
{
  public:
    Scope(Recorder *rec, const std::string &name,
          const std::string &program = {}, const std::string &config = {})
        : rec_(rec), id_(rec ? rec->open(name, program, config) : -1)
    {
    }
    ~Scope()
    {
        if (rec_)
            rec_->close(id_);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Recorder *rec_;
    int id_;
};

// ---------------------------------------------------------------
// Expected digests
// ---------------------------------------------------------------

check::Digest
liveDigest(const Spec &spec, std::uint64_t seed,
           const std::string &program, const sim::MachineConfig &cfg,
           const sim::RunResult &r)
{
    check::Digest d;
    d.workload = program;
    d.insts = spec.insts;
    d.warmup = spec.warmup;
    d.seed = seed;
    d.width = cfg.fetchWidth;
    d.threads = cfg.numThreads;
    d.fastforward = spec.ff;
    d.regions = spec.regions;
    d.stride = spec.stride;
    d.sections.push_back(sim::digestSection(kConfig, r));
    return d;
}

/**
 * Load this seed's expected digests, one per program in the order of
 * workloads::allWorkloadNames, from <expected_dir>/<workload>/seed<N>/.
 * Returns none, and says so, when the seed has no directory there.
 * Exits when the workload's directory is missing or a digest is
 * missing or malformed, so the check cannot be turned off by accident.
 */
std::vector<check::Digest>
loadExpected(const Spec &spec, std::uint64_t seed,
             const fs::path &expected_dir)
{
    const fs::path dir = expected_dir / spec.name;
    std::error_code ec;
    if (!fs::is_directory(dir, ec)) {
        std::fprintf(stderr, "error: no expected-digest directory %s%s%s\n",
                     dir.c_str(), ec ? ": " : "",
                     ec ? ec.message().c_str() : "");
        std::exit(2);
    }
    const fs::path seed_dir = dir / ("seed" + std::to_string(seed));
    std::vector<check::Digest> out;
    if (!fs::exists(seed_dir, ec) && !ec) {
        std::printf("no expected digests for %s seed %llu: runs are "
                    "checked for a completed outcome only\n",
                    spec.name.c_str(),
                    static_cast<unsigned long long>(seed));
        return out;
    }
    for (const std::string &name : workloads::allWorkloadNames()) {
        const fs::path path = seed_dir / (name + ".digest");
        std::ifstream in(path);
        std::string err = "cannot read";
        std::optional<check::Digest> d;
        if (in)
            d = check::parseDigest(in, err);
        if (!d) {
            std::fprintf(stderr, "error: expected digest %s: %s\n",
                         path.c_str(), err.c_str());
            std::exit(2);
        }
        out.push_back(std::move(*d));
    }
    return out;
}

// ---------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------

struct Program
{
    std::string name;
    sim::Workload workload;
};

struct Setup
{
    std::vector<Program> programs;
    double buildSeconds = 0.0;  ///< workloads::buildWorkload, summed
};

/** Build every program of the sweep. */
Setup
setUp(const Spec &spec, std::uint64_t seed, Recorder *rec)
{
    Scope root(rec, "bench.setup");
    Setup s;
    workloads::Params p;
    p.scale = spec.span() * 2;
    p.seed = seed;
    for (const std::string &name : workloads::allWorkloadNames()) {
        Scope sp(rec, "workloads.build", name, kConfig);
        auto t0 = Clock::now();
        s.programs.push_back({name, workloads::buildWorkload(name, p)});
        s.buildSeconds += secondsSince(t0);
    }
    return s;
}

struct RunRecord
{
    sim::RunResult result;
    double seconds = 0.0;
};

/** Run counts shared by every mode. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/** One Simulator::run, timed and checked against `expected` if given. */
RunRecord
runProgram(const Spec &spec, std::uint64_t seed, const Program &prog,
           const check::Digest *expected, Tally &tally, Recorder *rec)
{
    const sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    sim::Simulator machine(cfg);
    RunRecord r;
    std::string why;
    {
        Scope sp(rec, "sim.run", prog.name, kConfig);
        auto t0 = Clock::now();
        try {
            r.result = machine.run(prog.workload, spec.options(),
                                   /*with_slices=*/true);
        } catch (const SimError &e) {
            r.result.outcome = sim::SimOutcome::Fault;
            why = e.what();
        }
        r.seconds = secondsSince(t0);
    }
    ++tally.attempted;
    std::vector<std::string> errs;
    if (r.result.outcome != sim::SimOutcome::Completed) {
        errs.push_back(std::string("outcome ") +
                       sim::outcomeName(r.result.outcome) +
                       (why.empty() ? "" : ": " + why));
    } else if (expected) {
        check::Digest live =
            liveDigest(spec, seed, prog.name, cfg, r.result);
        // Counters and ratios the expected digest does not list are
        // ignored, so new counters need no regeneration.
        if (const auto *want = expected->findSection(kConfig)) {
            auto &got = live.sections.front();
            std::erase_if(got.counters, [&](const auto &kv) {
                return !want->counters.count(kv.first);
            });
            std::erase_if(got.ratios, [&](const auto &kv) {
                return !want->ratios.count(kv.first);
            });
        }
        errs = check::diffDigests(*expected, live);
    }
    if (!errs.empty()) {
        ++tally.failed;
        std::printf("FAILED %s %s:\n", spec.name.c_str(),
                    prog.name.c_str());
        for (const std::string &e : errs)
            std::printf("  %s\n", e.c_str());
    }
    return r;
}

std::vector<RunRecord>
sweep(const Spec &spec, std::uint64_t seed, const Setup &setup,
      const std::vector<check::Digest> &expected, Tally &tally,
      Recorder *rec)
{
    Scope sp(rec, "bench.sweep", {}, kConfig);
    std::vector<RunRecord> out;
    for (std::size_t i = 0; i < setup.programs.size(); ++i)
        out.push_back(runProgram(spec, seed, setup.programs[i],
                                 expected.empty() ? nullptr : &expected[i],
                                 tally, rec));
    return out;
}

// ---------------------------------------------------------------
// Output
// ---------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
emit(const std::vector<Metric> &metrics, const Tally &tally)
{
    for (const Metric &m : metrics)
        std::printf("%-34s %18.9g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string body;
    for (const Metric &m : metrics) {
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", m.value);
        body += (body.empty() ? "" : ", ") + std::string("\"") + m.name +
                "\": {\"value\": " + num + ", \"unit\": \"" + m.unit +
                "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": {%s}}\n",
                tally.failed == 0 && tally.attempted > 0 ? "true"
                                                         : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed),
                body.c_str());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------
// Modes
// ---------------------------------------------------------------

/**
 * End-to-end run: repeat whole sweeps while another fits in the time
 * budget. Each program's time is its median over the sweeps, so run_s
 * is the median-program sweep. setup_s is the median build time of the
 * programs: a throwaway set-up is built before every program run, so
 * it samples the same spread of host conditions as the runs. Loading
 * the expected digests is the benchmark's own work and is not timed.
 *
 * Every set-up and program run lies between two HostSpeed samples and
 * is scaled to the reference speed by them. The unscaled wall-clock
 * figures are printed for information, above the result line.
 */
std::vector<Metric>
measure(const Spec &spec, std::uint64_t seed, double seconds,
        const fs::path &expected_dir, Tally &tally)
{
    const std::vector<check::Digest> expected =
        loadExpected(spec, seed, expected_dir);
    HostSpeed host;
    std::vector<double> host_samples{host.sample()};

    const std::size_t n = workloads::allWorkloadNames().size();
    std::vector<std::vector<double>> times(n), wall_times(n);
    std::vector<double> setups, wall_setups;
    std::vector<RunRecord> last(n);
    std::optional<Setup> setup;
    const auto t0 = Clock::now();
    double sweep_time = 0.0;
    unsigned sweeps = 0;
    while (sweeps == 0 || secondsSince(t0) + sweep_time <= seconds) {
        auto s0 = Clock::now();
        for (std::size_t i = 0; i < n; ++i) {
            // The first run uses the set-up it follows; every later run
            // follows a throwaway one.
            Setup s = setUp(spec, seed, nullptr);
            const double build_s = s.buildSeconds;
            if (!setup)
                setup = std::move(s);
            last[i] = runProgram(spec, seed, setup->programs[i],
                                 expected.empty() ? nullptr : &expected[i],
                                 tally, nullptr);
            host_samples.push_back(host.sample());
            const double k = HostSpeed::scale(
                host_samples[host_samples.size() - 2], host_samples.back());
            setups.push_back(build_s * k);
            wall_setups.push_back(build_s);
            times[i].push_back(last[i].seconds * k);
            wall_times[i].push_back(last[i].seconds);
        }
        sweep_time = secondsSince(s0);
        ++sweeps;
    }

    auto sumOfMedians = [](const std::vector<std::vector<double>> &t) {
        double sum = 0.0;
        for (const std::vector<double> &v : t)
            sum += median(v);
        return sum;
    };
    double slowest = 0.0, retired = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        slowest = std::max(slowest, median(times[i]));
        retired += static_cast<double>(last[i].result.mainRetired);
    }
    const double run_s = sumOfMedians(times);
    std::printf("%s seed %llu: %u sweeps of %zu programs, %zu set-ups\n",
                spec.name.c_str(), static_cast<unsigned long long>(seed),
                sweeps, n, setups.size());
    std::printf("unscaled wall clock: run_s %.6f, setup_s %.9f; host "
                "kernel median %.6f s (reference %.6f s)\n",
                sumOfMedians(wall_times), median(wall_setups),
                median(host_samples), HostSpeed::kReferenceSeconds);
    return {
        {"setup_s", median(setups), "s"},
        {"run_s", run_s, "s"},
        {"sim_insts_per_s", ratio(retired, run_s), "1/s"},
        {"slowest_run_s", slowest, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

/** A conditional branch of a program's functional stream. */
struct CondRec
{
    Addr pc;
    Addr target;  ///< static taken target
    bool taken;
};

/** A load or store of a program's functional stream. */
struct MemRec
{
    Cycle at;  ///< instruction index, used as the cycle
    Addr addr;
    bool isStore;
};

struct DriveTimes
{
    double execSeconds = 0.0;
    std::uint64_t execInsts = 0;
    double ffSeconds = 0.0;
    std::uint64_t ffInsts = 0;
    double condSeconds = 0.0;
    std::uint64_t conds = 0;
    double memSeconds = 0.0;
    std::uint64_t accesses = 0;
};

/**
 * Isolated drives of single layers over one program's own stream:
 * arch::trace (execute-at-fetch cost), FastForward::advance, the
 * "paper" PredictorClient on the conditional branches, and a
 * MemoryHierarchy replay of the loads and stores.
 */
DriveTimes
drive(const Spec &spec, const Program &prog, Recorder &rec)
{
    Scope root(&rec, "bench.drive", prog.name, kConfig);
    const sim::Workload &wl = prog.workload;
    DriveTimes d;

    auto fresh = [&](arch::MemoryImage &mem) {
        Scope sp(&rec, "workloads.init_memory", prog.name);
        if (wl.initMemory)
            wl.initMemory(mem);
    };

    {
        arch::MemoryImage mem;
        fresh(mem);
        Scope sp(&rec, "arch.trace", prog.name);
        auto t0 = Clock::now();
        auto tr = arch::trace(wl.program, wl.entry, mem, spec.driveInsts,
                              [](const arch::TraceEvent &) {});
        d.execSeconds = secondsSince(t0);
        d.execInsts = tr.count;
    }

    std::vector<CondRec> conds;
    std::vector<MemRec> accesses;
    {
        arch::MemoryImage mem;
        fresh(mem);
        Scope sp(&rec, "arch.trace", prog.name, "collect");
        Cycle i = 0;
        arch::trace(wl.program, wl.entry, mem, spec.driveInsts,
                    [&](const arch::TraceEvent &e) {
                        if (e.inst->isCondBranch())
                            conds.push_back(
                                {e.pc, e.inst->target, e.result.taken});
                        else if (e.inst->isMem() && !e.result.fault)
                            accesses.push_back({i, e.result.memAddr,
                                                e.inst->isStore()});
                        ++i;
                    });
    }

    {
        arch::FastForward ff(wl.program);
        ff.reset(wl.entry);
        fresh(ff.mem());
        const std::uint64_t n = spec.ff ? spec.ff : spec.driveInsts;
        Scope sp(&rec, "arch.ff_advance", prog.name);
        auto t0 = Clock::now();
        ff.advance(n);
        d.ffSeconds = secondsSince(t0);
        d.ffInsts = ff.executed();
    }

    {
        auto client = branch::makePredictorClient("paper");
        Scope sp(&rec, "branch.predict_update", prog.name);
        auto t0 = Clock::now();
        for (const CondRec &c : conds) {
            client->predictCond(c.pc, c.target);
            client->updateCond(c.pc, c.taken);
        }
        d.condSeconds = secondsSince(t0);
        d.conds = conds.size();
    }

    {
        mem::MemoryHierarchy hier(sim::MachineConfig::fourWide().memory);
        Scope sp(&rec, "mem.access_tick", prog.name);
        auto t0 = Clock::now();
        // One instruction per cycle: fills land as they would in a
        // machine retiring at IPC 1.
        for (const MemRec &a : accesses) {
            hier.tick(a.at);
            hier.accessData(a.addr, a.isStore, false, a.at);
        }
        d.memSeconds = secondsSince(t0);
        d.accesses = accesses.size();
    }
    return d;
}

std::uint64_t
detailCounter(const sim::RunResult &r, const std::string &key)
{
    const auto &c = r.detail.counters();
    auto it = c.find(key);
    return it == c.end() ? 0 : it->second.value();
}

/**
 * Traced run: a set-up and sweep with spans around every layer call,
 * between two untraced reference sweeps, then the isolated drives.
 * Writes the spans to trace_out and returns the per-layer metrics.
 */
std::vector<Metric>
traced(const Spec &spec, std::uint64_t seed, const fs::path &expected_dir,
       const fs::path &trace_out, Tally &tally)
{
    const std::vector<check::Digest> expected =
        loadExpected(spec, seed, expected_dir);
    const Setup plain = setUp(spec, seed, nullptr);
    // Untraced reference sweeps before and after the traced one, so a
    // steady drift in host speed cancels out of trace.overhead_s.
    double untraced_s = 0.0;
    auto untraced = [&] {
        for (const RunRecord &r : sweep(spec, seed, plain, expected, tally,
                                            nullptr))
            untraced_s += 0.5 * r.seconds;
    };
    untraced();

    Recorder rec;
    std::vector<RunRecord> runs;
    std::vector<DriveTimes> drives;
    Setup setup;
    {
        Scope root(&rec, "bench.traced", {}, kConfig);
        setup = setUp(spec, seed, &rec);
        runs = sweep(spec, seed, setup, expected, tally, &rec);
    }
    untraced();
    {
        Scope root(&rec, "bench.drives", {}, kConfig);
        for (const Program &prog : setup.programs)
            drives.push_back(drive(spec, prog, rec));
    }

    std::vector<Metric> m;
    m.push_back({"workloads.build_s", setup.buildSeconds, "s"});
    for (const auto &[layer, secs] : rec.selfTimes())
        if (layer != "bench")
            m.push_back({layer + ".self_s", secs, "s"});

    double run_s = 0.0, ff_s = 0.0, warm_s = 0.0, meas_s = 0.0;
    double ffwd = 0.0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &r = runs[i].result;
        m.push_back({"sim.run_s." + setup.programs[i].name,
                     runs[i].seconds, "s"});
        run_s += runs[i].seconds;
        ff_s += r.wallFastForwardSeconds;
        warm_s += r.wallWarmupSeconds;
        meas_s += r.wallMeasureSeconds;
        ffwd += static_cast<double>(r.fastForwarded);
    }
    m.push_back({"sim.ff_s", ff_s, "s"});
    m.push_back({"sim.region_warmup_s", warm_s, "s"});
    m.push_back({"sim.region_measure_s", meas_s, "s"});
    m.push_back({"sim.region_other_s", run_s - ff_s - warm_s - meas_s,
                 "s"});

    DriveTimes tot;
    for (const DriveTimes &d : drives) {
        tot.execSeconds += d.execSeconds;
        tot.execInsts += d.execInsts;
        tot.ffSeconds += d.ffSeconds;
        tot.ffInsts += d.ffInsts;
        tot.condSeconds += d.condSeconds;
        tot.conds += d.conds;
        tot.memSeconds += d.memSeconds;
        tot.accesses += d.accesses;
    }
    m.push_back({"arch.ff_insts_per_s", ratio(ffwd, ff_s), "1/s"});
    m.push_back({"arch.ff_ns_per_inst",
                 1e9 * ratio(tot.ffSeconds, double(tot.ffInsts)), "ns"});
    m.push_back({"arch.exec_ns_per_inst",
                 1e9 * ratio(tot.execSeconds, double(tot.execInsts)),
                 "ns"});
    m.push_back({"branch.ns_per_cond",
                 1e9 * ratio(tot.condSeconds, double(tot.conds)), "ns"});
    m.push_back({"mem.ns_per_access",
                 1e9 * ratio(tot.memSeconds, double(tot.accesses)),
                 "ns"});

    // Shares of each run's measured-window host time implied by the
    // drive's per-op cost and the run's own op counts (the counters
    // cover the measured window, so that is the time they divide).
    double fetched = 0.0;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &r = runs[i].result;
        const auto &d = drives[i];
        const std::string &name = setup.programs[i].name;
        const double t = r.wallMeasureSeconds;
        const double per_inst = ratio(d.execSeconds, double(d.execInsts));
        const double per_cond = ratio(d.condSeconds, double(d.conds));
        const double per_access = ratio(d.memSeconds, double(d.accesses));
        m.push_back({"arch.exec_share." + name,
                     ratio(per_inst * double(r.mainRetired + r.sliceRetired),
                           t),
                     "ratio"});
        m.push_back({"branch.cond_share." + name,
                     ratio(per_cond * double(detailCounter(
                                          r, "cond_predictions")),
                           t),
                     "ratio"});
        m.push_back({"mem.load_share." + name,
                     ratio(per_access * double(detailCounter(r, "loads")),
                           t),
                     "ratio"});
        m.push_back({"core.ns_per_cycle." + name,
                     1e9 * ratio(r.wallWarmupSeconds + r.wallMeasureSeconds,
                                 double(r.totalCycles)),
                     "ns"});
        fetched += double(r.mainFetched + r.sliceFetched);
    }
    m.push_back({"core.ns_per_fetched", 1e9 * ratio(meas_s, fetched),
                 "ns"});

    std::map<std::string, double> c;
    for (const RunRecord &rr : runs) {
        const auto &r = rr.result;
        c["core.cycles"] += double(r.cycles);
        c["core.main_fetched"] +=
            double(r.mainFetched - r.mainFetchedWrongPath);
        c["core.wrong_path_fetched"] += double(r.mainFetchedWrongPath);
        c["core.slice_fetched"] += double(r.sliceFetched);
        c["branch.cond_predictions"] +=
            double(detailCounter(r, "cond_predictions"));
        c["branch.cond_branches"] += double(r.condBranches);
        c["branch.mispredictions"] += double(r.mispredictions);
        c["mem.loads"] += double(detailCounter(r, "loads"));
        c["mem.l1d_misses"] += double(detailCounter(r, "l1d_misses"));
        c["mem.covered_misses"] += double(r.coveredMisses);
        c["mem.slice_prefetches"] += double(r.slicePrefetches);
        c["slice.forks"] += double(r.forks);
        c["slice.predictions"] += double(r.predictionsGenerated);
        c["slice.correlator_used"] += double(r.correlatorUsed);
        c["slice.correlator_wrong"] += double(r.correlatorWrong);
        c["slice.late_predictions"] += double(r.latePredictions);
    }
    for (const auto &[name, v] : c)
        m.push_back({name, v, "count"});
    m.push_back({"mem.prefetch_cover_ratio",
                 ratio(c["mem.covered_misses"], c["mem.slice_prefetches"]),
                 "ratio"});
    m.push_back({"slice.pred_used_ratio",
                 ratio(c["slice.correlator_used"], c["slice.predictions"]),
                 "ratio"});
    m.push_back({"slice.fetched_share",
                 ratio(c["core.slice_fetched"],
                       c["core.main_fetched"] +
                           c["core.wrong_path_fetched"] +
                           c["core.slice_fetched"]),
                 "ratio"});
    m.push_back({"trace.overhead_s", run_s - untraced_s, "s"});

    fs::create_directories(trace_out.parent_path());
    std::ofstream out(trace_out);
    rec.write(out);
    if (!out) {
        std::fprintf(stderr, "error: cannot write %s\n",
                     trace_out.c_str());
        std::exit(2);
    }
    std::printf("wrote %zu spans to %s\n", rec.spans.size(),
                trace_out.c_str());
    return m;
}

/** Regenerate the expected digests of one workload and seed. */
int
writeExpected(const Spec &spec, std::uint64_t seed,
              const fs::path &expected_dir)
{
    Setup setup = setUp(spec, seed, nullptr);
    Tally tally;
    const sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    auto runs = sweep(spec, seed, setup, {}, tally, nullptr);
    if (tally.failed) {
        std::fprintf(stderr, "error: %llu runs did not complete; no "
                             "digests written\n",
                     static_cast<unsigned long long>(tally.failed));
        return 1;
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const std::string &name = setup.programs[i].name;
        check::Digest d =
            liveDigest(spec, seed, name, cfg, runs[i].result);
        const fs::path p = expected_dir / spec.name /
                           ("seed" + std::to_string(seed)) /
                           (name + ".digest");
        fs::create_directories(p.parent_path());
        std::ofstream out(p);
        // formatDigest's own header names the golden/ corpus tool;
        // replace it with how these files are regenerated.
        std::istringstream body(check::formatDigest(d));
        out << "# specbench expected counters, workload " << spec.name
            << ". Regenerate only for a declared model change:\n"
            << "# specbench --write-expected (see specbench/README.md)\n";
        for (std::string line; std::getline(body, line);)
            if (line.rfind('#', 0) != 0)
                out << line << "\n";
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n", p.c_str());
            return 1;
        }
    }
    std::printf("wrote %zu digests for %s seed %llu\n", runs.size(),
                spec.name.c_str(), static_cast<unsigned long long>(seed));
    return 0;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "error: %s\nusage: specbench --workload "
                 "timing_sliced|sampled [--seed N] --seconds S "
                 "[--trace 0|1] --expected DIR [--trace-out FILE] "
                 "[--tiny]\n"
                 "       specbench --workload W [--seed N] "
                 "--expected DIR --write-expected\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long x = std::strtoull(v.c_str(), &end, 10);
    if (v.empty() || v[0] == '-' || *end != '\0' || errno != 0)
        usage(flag + " needs a non-negative integer, got '" + v + "'");
    return x;
}

} // namespace

int
main(int argc, char **argv)
{
    std::map<std::string, std::string> args;
    bool tiny = false, write = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--tiny") {
            tiny = true;
        } else if (a == "--write-expected") {
            write = true;
        } else if (a == "--workload" || a == "--seed" ||
                   a == "--seconds" || a == "--trace" ||
                   a == "--expected" || a == "--trace-out") {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            args[a] = argv[++i];
        } else {
            usage("unknown argument '" + a + "'");
        }
    }
    for (const char *req : {"--workload", "--expected"})
        if (!args.count(req))
            usage(std::string(req) + " is required");
    if (!write && !args.count("--seconds"))
        usage("--seconds is required");

    const std::vector<Spec> specs = allSpecs(tiny);
    auto it = std::find_if(specs.begin(), specs.end(), [&](const Spec &s) {
        return s.name == args["--workload"];
    });
    if (it == specs.end())
        usage("unknown workload '" + args["--workload"] + "'");
    const Spec &spec = *it;
    const std::uint64_t seed =
        args.count("--seed") ? parseCount("--seed", args["--seed"]) : 1;
    const double seconds = static_cast<double>(
        write ? 0 : parseCount("--seconds", args["--seconds"]));
    const std::uint64_t trace =
        args.count("--trace") ? parseCount("--trace", args["--trace"]) : 0;
    if (trace > 1)
        usage("--trace must be 0 or 1");
    if (trace && !args.count("--trace-out"))
        usage("--trace 1 needs --trace-out");
    const fs::path expected_dir = args["--expected"];

    // A simulator panic or fatal error fails the run it happened in
    // instead of ending the benchmark.
    ScopedThrowErrors throw_errors;
    if (write)
        return writeExpected(spec, seed, expected_dir);

    Tally tally;
    std::vector<Metric> metrics =
        trace ? traced(spec, seed, expected_dir, args["--trace-out"], tally)
              : measure(spec, seed, seconds, expected_dir, tally);
    emit(metrics, tally);
    return 0;
}
