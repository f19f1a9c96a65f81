/**
 * @file
 * A fixed-size thread pool for running independent experiment rows in
 * parallel. Every Simulator::run owns its machine and memory state, so
 * a sweep over benchmarks (or over independent configurations) is
 * embarrassingly parallel; the pool supplies the workers and the
 * ordering discipline that keeps sweep output byte-identical to a
 * serial run:
 *
 *  - results are returned in submission order (map() fills a slot per
 *    item; callers format/print only after the whole batch is done);
 *  - log/trace lines a job emits (SS_WARN, SS_INFORM, SS_DTRACE) are
 *    captured per job via ScopedJobTag, prefixed with the job's
 *    submission index ("[jN] "), and flushed to stderr in submission
 *    order as jobs complete — so sweep output is byte-identical no
 *    matter the worker count;
 *  - exceptions thrown by a job are captured and rethrown from the
 *    submitting thread (the first one in submission order, after all
 *    jobs of the batch have finished);
 *  - a pool with one job runs tasks inline on the submitting thread,
 *    so `--jobs 1` is exactly the serial execution.
 *
 * mapSettled() is the crash-resilient variant for sweeps: each job
 * runs under ScopedThrowErrors (panic()/fatal() in simulation code
 * become catchable SimError), and a failure is isolated in that job's
 * slot as its error text instead of being rethrown. One bad
 * configuration no longer takes down a 24-run sweep. Jobs are not
 * timed out: every simulation run is bounded in simulated cycles (the
 * hard cycle limit and the no-progress watchdog).
 *
 * The job count comes from (in priority order) an explicit
 * constructor argument (the `--jobs N` flag of the bench drivers and
 * specslice_run), the SS_JOBS environment variable, and
 * hardware_concurrency.
 */

#ifndef SPECSLICE_SIM_JOB_POOL_HH
#define SPECSLICE_SIM_JOB_POOL_HH

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

namespace specslice::sim
{

/** Result slot of one mapSettled() item: the value when the job
 *  returned, otherwise the text of what it threw. */
template <typename R>
struct Settled
{
    std::optional<R> value;
    /** Exception message (empty when ok). */
    std::string error;
    /** The job's wall time, in seconds. */
    double wallSeconds = 0.0;

    bool ok() const { return value.has_value(); }
};

namespace settle_detail
{

/**
 * Run `body` under ScopedThrowErrors (panic/fatal throw). Never
 * throws: the text of whatever `body` threw lands in `error`, and its
 * wall time in `wall_seconds`.
 */
void runSettled(std::string &error, double &wall_seconds,
                const std::function<void()> &body);

} // namespace settle_detail

class JobPool
{
  public:
    /** @param jobs worker count; 0 selects defaultJobs(). */
    explicit JobPool(unsigned jobs = 0);
    ~JobPool();

    JobPool(const JobPool &) = delete;
    JobPool &operator=(const JobPool &) = delete;

    /** The worker count this pool runs with (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * The job count used when none is given explicitly: SS_JOBS if
     * set (validated; exits with a message on garbage), otherwise
     * hardware_concurrency (at least 1). Read per call so tests can
     * vary the environment.
     */
    static unsigned defaultJobs();

    /**
     * Enqueue one task. The returned future becomes ready when the
     * task finishes; a thrown exception is delivered through get().
     * With jobs() == 1 the task runs inline before submit returns.
     */
    std::future<void> submit(std::function<void()> fn);

    /**
     * Run fn over every item and return the results in item order,
     * regardless of completion order. All jobs of the batch are
     * waited for before returning; if any threw, the first exception
     * (in submission order) is rethrown.
     */
    template <typename Item, typename Fn>
    auto
    map(const std::vector<Item> &items, Fn fn)
        -> std::vector<std::invoke_result_t<Fn &, const Item &>>
    {
        using R = std::invoke_result_t<Fn &, const Item &>;
        std::vector<std::optional<R>> slots(items.size());
        std::vector<std::future<void>> done;
        done.reserve(items.size());
        for (std::size_t i = 0; i < items.size(); ++i) {
            done.push_back(submit([&slots, &items, &fn, i] {
                slots[i].emplace(fn(items[i]));
            }));
        }
        // Drain every future before rethrowing so no worker can still
        // be touching slots when the batch storage goes away.
        std::exception_ptr first;
        for (auto &f : done) {
            try {
                f.get();
            } catch (...) {
                if (!first)
                    first = std::current_exception();
            }
        }
        if (first)
            std::rethrow_exception(first);

        std::vector<R> out;
        out.reserve(slots.size());
        for (auto &s : slots)
            out.push_back(std::move(*s));
        return out;
    }

    /**
     * Crash-resilient map: like map(), but each job is isolated — a
     * job that panics or throws yields a slot holding its error text
     * instead of poisoning the batch. The slot order matches the item
     * order; output-ordering guarantees are the same as map()'s.
     */
    template <typename Item, typename Fn>
    auto
    mapSettled(const std::vector<Item> &items, Fn fn)
        -> std::vector<Settled<std::invoke_result_t<Fn &, const Item &>>>
    {
        using R = std::invoke_result_t<Fn &, const Item &>;
        std::vector<Settled<R>> out(items.size());
        std::vector<std::future<void>> done;
        done.reserve(items.size());
        for (std::size_t i = 0; i < items.size(); ++i) {
            done.push_back(submit([&out, &items, &fn, i] {
                Settled<R> &slot = out[i];
                // fn throwing leaves the value empty: emplace() is
                // never reached.
                settle_detail::runSettled(
                    slot.error, slot.wallSeconds,
                    [&] { slot.value.emplace(fn(items[i])); });
            }));
        }
        for (auto &f : done)
            f.get();  // the settle wrapper never throws
        return out;
    }

  private:
    void workerLoop();

    /**
     * Record job `index`'s captured log output as complete and flush
     * the contiguous prefix of completed buffers (in submission
     * order) to stderr.
     */
    void completeOutput(long index, std::string &&buffered);

    unsigned jobs_;
    std::vector<std::thread> workers_;
    std::deque<std::packaged_task<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;

    std::atomic<long> submitted_{0};
    std::mutex outMutex_;
    std::map<long, std::string> outPending_;
    long outNext_ = 0;
};

} // namespace specslice::sim

#endif // SPECSLICE_SIM_JOB_POOL_HH
