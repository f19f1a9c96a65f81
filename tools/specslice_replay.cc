/**
 * @file
 * Predictor-accuracy replay: runs each named workload functionally
 * (arch::trace, in process) and streams its retired instructions
 * through the CVP-style predictor clients, scoring them in order.
 *
 *   specslice_replay [--workloads A,B] [--predictor A,B] [--json]
 *   specslice_replay --golden golden/     # diff every *.rdigest
 *   specslice_replay --generate golden/   # refresh the corpus
 *   specslice_replay --bench [--jobs N]   # write BENCH_replay.json
 *
 * A run replays corpusRecords retired instructions of the workload
 * built with data seed corpusSeed. --golden instead reads the record
 * budget and seed out of each digest, so the committed corpus — not
 * the invoker — defines the regression run, as in specslice_verify.
 * Replay digests (.rdigest) reuse the digest container and diff
 * rules: integer counters exact, accuracy ratios within epsilon. A
 * full --golden run also fails on a registered workload without an
 * .rdigest and on an .rdigest naming no registered workload.
 *
 * Exit codes: 0 pass, 1 mismatch or missing/malformed digest,
 * 2 usage errors.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "branch/predictor_client.hh"
#include "branch/replay.hh"
#include "check/digest.hh"
#include "common/jsonio.hh"
#include "sim/job_pool.hh"
#include "sim/result_json.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

/** The corpus run: retired instructions replayed per workload, and
 *  the data seed the workload is built with. */
constexpr std::uint64_t corpusRecords = 25'000;
constexpr std::uint64_t corpusSeed = 1;

struct Options
{
    std::vector<std::string> workloads;   ///< empty = all (+ coverage)
    std::vector<std::string> predictors;  ///< empty = all registered
    std::string golden;    ///< diff against DIR/<wl>.rdigest
    std::string generate;  ///< (re)write DIR/<wl>.rdigest
    bool bench = false;
    bool json = false;
    unsigned jobs = 0;  ///< 0 = SS_JOBS or hardware concurrency
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: specslice_replay [--golden DIR | --generate DIR | "
        "--bench] [options]\n"
        "  --workloads A,B   replay only these workloads (default all;\n"
        "                    a restricted --golden skips the coverage\n"
        "                    check)\n"
        "  --predictor A,B   restrict to these clients (default all)\n"
        "  --golden DIR      diff each replay against DIR/<wl>.rdigest,\n"
        "                    taking the record budget and seed from the\n"
        "                    digest (exit 1 on any mismatch)\n"
        "  --generate DIR    (re)write DIR/<wl>.rdigest\n"
        "  --bench           write BENCH_replay.json with throughput\n"
        "  --jobs N          parallel workloads (default SS_JOBS or the\n"
        "                    core count)\n"
        "  --json            machine-readable result on stdout\n"
        "Each workload replays %llu retired instructions, built with\n"
        "seed %llu.\n",
        static_cast<unsigned long long>(corpusRecords),
        static_cast<unsigned long long>(corpusSeed));
    std::exit(code);
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::stringstream ss(csv);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (a == "--workloads") {
            o.workloads = splitCsv(next());
        } else if (a == "--predictor") {
            o.predictors = splitCsv(next());
        } else if (a == "--golden") {
            o.golden = next();
        } else if (a == "--generate") {
            o.generate = next();
        } else if (a == "--bench") {
            o.bench = true;
        } else if (a == "--jobs") {
            const char *s = next();
            char *end = nullptr;
            const unsigned long long v = std::strtoull(s, &end, 10);
            if (*s == '\0' || *s == '-' || *end != '\0' || v == 0 ||
                v > 4096)
                usage(2);
            o.jobs = static_cast<unsigned>(v);
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--help" || a == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "error: unknown option '%s'\n",
                         a.c_str());
            usage(2);
        }
    }
    const int modes = (o.golden.empty() ? 0 : 1) +
                      (o.generate.empty() ? 0 : 1) + (o.bench ? 1 : 0);
    if (modes > 1)
        usage(2);
    return o;
}

/** Exit 2 naming the valid choices unless every name is one. */
void
requireKnown(const char *what, const std::vector<std::string> &names,
             const std::vector<std::string> &valid)
{
    for (const std::string &name : names) {
        if (std::find(valid.begin(), valid.end(), name) != valid.end())
            continue;
        std::string list;
        for (const auto &n : valid)
            list += (list.empty() ? "" : " ") + n;
        std::fprintf(stderr, "error: unknown %s '%s' (valid: %s)\n",
                     what, name.c_str(), list.c_str());
        std::exit(2);
    }
}

using Rows = std::vector<std::pair<std::string, branch::ReplayStats>>;

/** One workload's replay: its parameters, results and diff. */
struct Job
{
    std::string workload;
    std::uint64_t records = corpusRecords;
    std::uint64_t seed = corpusSeed;
    Rows rows;
    double wallSeconds = 0.0;
    /** --golden: mismatches, or why the digest could not be used. */
    std::vector<std::string> messages;
};

/** Build name at the corpus scale (twice the record budget, so no
 *  workload halts inside it) and replay it through every client,
 *  each from a fresh initial memory image. */
Rows
replayWorkload(const std::string &name, std::uint64_t records,
               std::uint64_t seed, const std::vector<std::string> &clients)
{
    workloads::Params wp;
    wp.scale = records * 2;
    wp.seed = seed;
    const sim::Workload wl = workloads::buildWorkload(name, wp);
    Rows rows;
    for (const std::string &c : clients) {
        arch::MemoryImage mem;
        if (wl.initMemory)
            wl.initMemory(mem);
        auto client = branch::makePredictorClient(c);
        rows.emplace_back(c, branch::replayProgram(wl.program, wl.entry,
                                                   mem, records,
                                                   *client));
    }
    return rows;
}

std::string
digestPath(const std::string &dir, const std::string &workload)
{
    return (std::filesystem::path(dir) / (workload + ".rdigest"))
        .string();
}

/** Replay one workload; under --golden, diff it against its digest,
 *  whose header supplies the run parameters. */
Job
runJob(const std::string &name, const Options &o,
       const std::vector<std::string> &clients)
{
    Job job;
    job.workload = name;
    std::optional<check::Digest> golden;
    if (!o.golden.empty()) {
        const std::string path = digestPath(o.golden, name);
        std::ifstream is(path);
        if (!is) {
            job.messages.push_back("missing golden digest " + path);
            return job;
        }
        std::string err;
        golden = check::parseDigest(is, err);
        if (!golden) {
            job.messages.push_back("malformed " + path + ": " + err);
            return job;
        }
        job.records = golden->insts;
        job.seed = golden->seed;
    }

    const auto start = std::chrono::steady_clock::now();
    job.rows = replayWorkload(name, job.records, job.seed, clients);
    job.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (golden)
        job.messages = check::diffDigests(
            *golden, branch::replayDigest(name, job.records, job.seed,
                                          job.rows));
    return job;
}

void
printTable(const Job &job)
{
    std::printf("workload %s: %llu records\n", job.workload.c_str(),
                static_cast<unsigned long long>(job.records));
    std::printf("%-10s %12s %12s %10s %12s %10s\n", "predictor",
                "cond", "cond_miss", "cond_acc", "indir_miss",
                "ret_miss");
    for (const auto &[name, s] : job.rows) {
        std::printf("%-10s %12llu %12llu %9.4f%% %12llu %10llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(s.condBranches),
                    static_cast<unsigned long long>(s.condMispredicts),
                    100.0 * s.condAccuracy(),
                    static_cast<unsigned long long>(
                        s.indirectMispredicts),
                    static_cast<unsigned long long>(
                        s.returnMispredicts));
    }
}

/** The per-workload result document (--json, and --bench rows):
 *  exactly the digest section's numbers. */
json::JsonObject
workloadDocument(const Job &job)
{
    std::vector<std::string> sections;
    for (const auto &[name, s] : job.rows) {
        check::Digest::Section sec = branch::replaySection(name, s);
        json::JsonObject js;
        js.field("predictor", name);
        for (const auto &[k, v] : sec.counters)
            js.field(k, v);
        for (const auto &[k, v] : sec.ratios)
            js.field(k, v);
        sections.push_back(js.str());
    }
    json::JsonObject doc;
    doc.field("workload", job.workload)
        .field("records", job.records)
        .field("seed", job.seed)
        .raw("predictors", json::jsonArray(sections));
    return doc;
}

/** Write every job's digest under o.generate. */
int
generateDigests(const Options &o, const std::vector<Job> &jobs)
{
    std::filesystem::create_directories(o.generate);
    for (const Job &job : jobs) {
        // formatDigest stamps the execution corpus's regeneration
        // hint; replace it so the file names its own provenance.
        std::string text = check::formatDigest(branch::replayDigest(
            job.workload, job.records, job.seed, job.rows));
        while (!text.empty() && text[0] == '#')
            text.erase(0, text.find('\n') + 1);
        const std::string path = digestPath(o.generate, job.workload);
        std::ofstream os(path);
        os << "# specslice replay-accuracy digest (do not edit by "
              "hand;\n"
              "# regenerate: specslice_replay --generate golden/)\n"
           << text;
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        std::printf("wrote %s\n", path.c_str());
    }
    return 0;
}

/** Print every --golden mismatch and, on a full run, every coverage
 *  error to stderr. @return true when there are none. */
bool
matchesGolden(const Options &o, const std::vector<Job> &jobs)
{
    std::size_t ok = 0;
    for (const Job &job : jobs) {
        for (const std::string &m : job.messages)
            std::fprintf(stderr, "MISMATCH %s: %s\n",
                         job.workload.c_str(), m.c_str());
        if (job.messages.empty())
            ++ok;
    }
    bool failed = ok != jobs.size();
    if (o.workloads.empty()) {
        const auto &all = workloads::allWorkloadNames();
        const std::set<std::string> known(all.begin(), all.end());
        std::error_code ec;
        for (const auto &e :
             std::filesystem::directory_iterator(o.golden, ec)) {
            if (e.path().extension() == ".rdigest" &&
                !known.count(e.path().stem().string())) {
                std::fprintf(stderr,
                             "stray replay digest for unknown "
                             "workload: %s\n",
                             e.path().string().c_str());
                failed = true;
            }
        }
        if (ec) {
            std::fprintf(stderr, "cannot scan %s: %s\n",
                         o.golden.c_str(), ec.message().c_str());
            failed = true;
        }
    }
    std::fprintf(stderr, "replay: %zu/%zu workloads match %s\n", ok,
                 jobs.size(), o.golden.c_str());
    return !failed;
}

/** Print the results; with --bench also write BENCH_replay.json. */
int
report(const Options &o, const std::vector<Job> &jobs,
       std::size_t clients, double sweep_wall)
{
    auto perSec = [&](std::uint64_t records, double seconds) {
        return seconds > 0.0 ? static_cast<double>(records) *
                                   static_cast<double>(clients) /
                                   seconds
                             : 0.0;
    };
    std::vector<std::string> elems;
    std::uint64_t total_records = 0;
    for (const Job &job : jobs) {
        json::JsonObject doc = workloadDocument(job);
        if (o.bench)
            doc.field("wall_seconds", job.wallSeconds)
                .field("records_per_sec",
                       perSec(job.records, job.wallSeconds));
        elems.push_back(doc.str());
        total_records += job.records;
        if (!o.json)
            printTable(job);
    }

    json::JsonObject doc;
    doc.field("schema_version", sim::resultSchemaVersion);
    if (o.bench) {
        json::JsonObject aggregate;
        aggregate.field("workloads", std::uint64_t{jobs.size()})
            .field("records", total_records)
            .field("sweep_wall_seconds", sweep_wall)
            .field("sweep_records_per_sec",
                   perSec(total_records, sweep_wall));
        doc.field("bench", std::string("replay"))
            .raw("workloads", json::jsonArray(elems))
            .raw("aggregate", aggregate.str());
        const std::string path = "BENCH_replay.json";
        std::ofstream os(path);
        os << doc.str() << "\n";
        if (!os) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         path.c_str());
            return 1;
        }
        if (!o.json)
            std::printf("wrote %s (%zu workloads)\n", path.c_str(),
                        jobs.size());
    } else {
        doc.raw("workloads", json::jsonArray(elems));
    }
    if (o.json)
        std::printf("%s\n", doc.str().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const std::vector<std::string> &all = workloads::allWorkloadNames();
    requireKnown("workload", o.workloads, all);
    requireKnown("predictor", o.predictors,
                 branch::predictorClientNames());
    const std::vector<std::string> &names =
        o.workloads.empty() ? all : o.workloads;
    const std::vector<std::string> &clients =
        o.predictors.empty() ? branch::predictorClientNames()
                             : o.predictors;

    sim::JobPool pool(o.jobs);
    const auto start = std::chrono::steady_clock::now();
    const std::vector<Job> jobs = pool.map(
        names,
        [&](const std::string &name) { return runJob(name, o, clients); });
    const double sweep_wall = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - start)
                                  .count();

    if (!o.generate.empty())
        return generateDigests(o, jobs);
    const int rc = report(o, jobs, clients.size(), sweep_wall);
    if (!o.golden.empty() && !matchesGolden(o, jobs))
        return 1;
    return rc;
}
