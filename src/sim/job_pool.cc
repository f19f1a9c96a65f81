#include "sim/job_pool.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/failure.hh"
#include "common/logging.hh"

namespace specslice::sim
{

namespace settle_detail
{

void
runSettled(std::string &error, double &wall_seconds,
           const std::function<void()> &body)
{
    auto t0 = std::chrono::steady_clock::now();
    try {
        ScopedThrowErrors throwing;
        body();
    } catch (const std::exception &e) {
        error = e.what();
    } catch (...) {
        error = "unknown exception";
    }
    wall_seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
}

} // namespace settle_detail

unsigned
JobPool::defaultJobs()
{
    if (const char *v = std::getenv("SS_JOBS")) {
        char *end = nullptr;
        errno = 0;
        unsigned long parsed = std::strtoul(v, &end, 10);
        bool bad = *v == '\0' || v[0] == '-' || end == nullptr ||
                   *end != '\0' || errno == ERANGE || parsed == 0 ||
                   parsed > 4096;
        if (bad) {
            std::fprintf(stderr,
                         "error: SS_JOBS='%s' is not a job count in "
                         "[1, 4096]\n",
                         v);
            std::exit(2);
        }
        return static_cast<unsigned>(parsed);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

JobPool::JobPool(unsigned jobs) : jobs_(jobs ? jobs : defaultJobs())
{
    // jobs_ == 1 runs tasks inline in submit(): no workers, and the
    // pool degenerates to exactly the serial execution order.
    if (jobs_ < 2)
        return;
    workers_.reserve(jobs_);
    for (unsigned i = 0; i < jobs_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

JobPool::~JobPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
}

std::future<void>
JobPool::submit(std::function<void()> fn)
{
    // Wrap the task so its log/trace output is tagged with the job's
    // submission index and captured; buffers are flushed in submission
    // order, so the bytes hitting stderr do not depend on the worker
    // count. The inline (jobs_ < 2) path runs the same wrapper, which
    // makes `--jobs 1` output identical to a parallel run's.
    long index = submitted_.fetch_add(1, std::memory_order_relaxed);
    std::packaged_task<void()> task(
        [this, index, fn = std::move(fn)]() {
            std::string buffered;
            try {
                ScopedJobTag tag(index, &buffered);
                fn();
            } catch (...) {
                completeOutput(index, std::move(buffered));
                throw;
            }
            completeOutput(index, std::move(buffered));
        });
    std::future<void> fut = task.get_future();
    if (jobs_ < 2) {
        task();  // inline: exceptions land in the future
        return fut;
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
    return fut;
}

void
JobPool::completeOutput(long index, std::string &&buffered)
{
    std::lock_guard<std::mutex> lock(outMutex_);
    if (index != outNext_) {
        outPending_.emplace(index, std::move(buffered));
        return;
    }
    ScopedJobTag::writeCaptured(buffered);
    ++outNext_;
    for (auto it = outPending_.begin();
         it != outPending_.end() && it->first == outNext_;
         it = outPending_.erase(it)) {
        ScopedJobTag::writeCaptured(it->second);
        ++outNext_;
    }
}

void
JobPool::workerLoop()
{
    for (;;) {
        std::packaged_task<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return;  // stopping and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

} // namespace specslice::sim
