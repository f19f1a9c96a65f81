/**
 * @file
 * JobPool tests: submission-order result delivery, exception capture
 * and rethrow, the jobs==1 inline degenerate case, SS_JOBS handling,
 * and the property the parallel experiment engine rests on — a sweep
 * of experiment rows produces identical statistics at any job count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "sim/experiments.hh"
#include "sim/job_pool.hh"

using namespace specslice;

TEST(JobPool, MapPreservesSubmissionOrder)
{
    sim::JobPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);

    std::vector<int> items;
    for (int i = 0; i < 200; ++i)
        items.push_back(i);
    auto out = pool.map(items, [](int v) { return v * 3 + 1; });
    ASSERT_EQ(out.size(), items.size());
    for (int i = 0; i < 200; ++i)
        EXPECT_EQ(out[i], i * 3 + 1);
}

TEST(JobPool, SingleJobRunsInlineOnSubmittingThread)
{
    sim::JobPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);

    const std::thread::id self = std::this_thread::get_id();
    auto out = pool.map(std::vector<int>{1, 2, 3}, [&](int v) {
        EXPECT_EQ(std::this_thread::get_id(), self);
        return v + 10;
    });
    EXPECT_EQ(out, (std::vector<int>{11, 12, 13}));
}

TEST(JobPool, SubmitRunsEverythingOnceEvenWhenOversubscribed)
{
    // More tasks than workers: all must run exactly once.
    sim::JobPool pool(2);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> done;
    for (int i = 0; i < 64; ++i)
        done.push_back(pool.submit([&ran] { ++ran; }));
    for (auto &f : done)
        f.get();
    EXPECT_EQ(ran.load(), 64);
}

TEST(JobPool, ExceptionPropagatesAndPoolStaysUsable)
{
    sim::JobPool pool(4);
    const std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};

    try {
        pool.map(items, [](int v) -> int {
            if (v == 3)
                throw std::runtime_error("boom");
            return v;
        });
        FAIL() << "expected the job's exception to be rethrown";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom");
    }

    // The failed batch must not poison the workers.
    auto ok = pool.map(items, [](int v) { return v * 2; });
    ASSERT_EQ(ok.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i)
        EXPECT_EQ(ok[i], items[i] * 2);
}

TEST(JobPool, ExceptionPropagatesInline)
{
    sim::JobPool pool(1);
    EXPECT_THROW(pool.map(std::vector<int>{1},
                          [](int) -> int {
                              throw std::logic_error("inline");
                          }),
                 std::logic_error);
}

TEST(JobPool, DefaultJobsHonorsEnvironment)
{
    ::setenv("SS_JOBS", "3", 1);
    EXPECT_EQ(sim::JobPool::defaultJobs(), 3u);
    ::unsetenv("SS_JOBS");
    EXPECT_GE(sim::JobPool::defaultJobs(), 1u);

    sim::JobPool dflt;  // jobs = 0 selects defaultJobs()
    EXPECT_GE(dflt.jobs(), 1u);
}

namespace
{

/**
 * Every simulated statistic of a Figure 11 row, serialized. Wall-clock
 * style fields are excluded by construction: RunResult carries only
 * architectural counters.
 */
std::string
fingerprint(const sim::Figure11Row &row)
{
    std::ostringstream os;
    os << row.program << '\n';
    for (const sim::RunResult *r : {&row.base, &row.sliced, &row.limit}) {
        os << r->cycles << ' ' << r->mainRetired << ' '
           << r->mispredictions << ' ' << r->l1dMissesMain << ' '
           << r->forks << ' ' << r->correlatorUsed << '\n';
        r->detail.dump(os);
    }
    return os.str();
}

std::string
runSweep(unsigned jobs)
{
    sim::ExperimentConfig cfg;
    cfg.measureInsts = 4000;
    cfg.warmupInsts = 1000;
    cfg.seed = 1;

    const std::vector<std::string> names = {"vpr", "gzip"};
    sim::JobPool pool(jobs);
    auto rows = pool.map(names, [&](const std::string &name) {
        return sim::runFigure11Row(sim::MachineConfig::fourWide(), name,
                                   cfg);
    });

    std::string fp;
    for (const auto &row : rows)
        fp += fingerprint(row);
    return fp;
}

} // namespace

TEST(JobPool, Figure11SweepIsIdenticalAcrossJobCounts)
{
    std::string serial = runSweep(1);
    std::string parallel = runSweep(4);
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);
}

// ---------------------------------------------------------------
// mapSettled: crash-resilient sweeps
// ---------------------------------------------------------------

TEST(JobPoolSettled, ThrowingJobIsIsolated)
{
    sim::JobPool pool(4);
    const std::vector<int> items = {0, 1, 2, 3, 4, 5, 6, 7};
    auto out = pool.mapSettled(items, [](int v) -> int {
        if (v == 3) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
            throw std::runtime_error("boom");
        }
        return v * 2;
    });
    ASSERT_EQ(out.size(), items.size());
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i == 3) {
            EXPECT_FALSE(out[i].ok());
            EXPECT_EQ(out[i].error, "boom");
            EXPECT_FALSE(out[i].value.has_value());
            // A failed job still reports its wall time.
            EXPECT_GE(out[i].wallSeconds, 0.02);
        } else {
            ASSERT_TRUE(out[i].ok()) << i;
            EXPECT_EQ(*out[i].value, static_cast<int>(i) * 2);
        }
    }
}

TEST(JobPoolSettled, PanicBecomesCatchableSimError)
{
    // SS_PANIC inside a settled job must land in the slot, not kill
    // the process — that is the whole point of the throw-mode layer.
    sim::JobPool pool(2);
    const std::vector<int> items = {0, 1, 2};
    auto out = pool.mapSettled(items, [](int v) -> int {
        if (v == 1)
            SS_PANIC("injected panic in job ", v);
        return v;
    });
    ASSERT_EQ(out.size(), 3u);
    EXPECT_TRUE(out[0].ok());
    EXPECT_TRUE(out[2].ok());
    EXPECT_FALSE(out[1].ok());
    EXPECT_NE(out[1].error.find("panic"), std::string::npos);
    EXPECT_NE(out[1].error.find("injected panic in job 1"),
              std::string::npos);
}

TEST(JobPoolSettled, SweepSurvivesOneFatalConfiguration)
{
    // The acceptance shape: an 8-job sweep where one configuration
    // dies must complete the other seven and report the failure.
    sim::JobPool pool(8);
    std::vector<int> items;
    for (int i = 0; i < 8; ++i)
        items.push_back(i);
    auto out = pool.mapSettled(items, [](int v) -> int {
        if (v == 5)
            SS_FATAL("bad configuration ", v);
        return v + 100;
    });
    unsigned ok = 0, failed = 0;
    for (const auto &slot : out)
        slot.ok() ? ++ok : ++failed;
    EXPECT_EQ(ok, 7u);
    EXPECT_EQ(failed, 1u);
    EXPECT_FALSE(out[5].ok());
    EXPECT_NE(out[5].error.find("fatal"), std::string::npos);

    // The pool stays usable after the failures.
    auto again = pool.map(items, [](int v) { return v; });
    EXPECT_EQ(again.size(), items.size());
}
