#include "driver/task_list.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <numeric>
#include <thread>

#include "comm/rank_world.hpp"
#include "exec/execution_space.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/thread_safety.hpp"

namespace vibe {

namespace {

using Clock = std::chrono::steady_clock;

/**
 * Fruitless polls tolerated per task, when no progress can come from
 * outside the graph, before the executor panics naming the stuck
 * tasks. Distinguishes a permanently blocked polling task (progress
 * stall) from a plain dependency cycle, which is detected immediately.
 */
constexpr std::uint64_t kStallPolls = 100;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * One task attempt as an obs span. Called outside any executor lock,
 * on the thread that ran the attempt, with the timing the executor
 * already took — tracing adds no clock reads of its own here.
 */
void
traceAttempt(const std::string& name, TaskCategory category, int rank,
             std::int64_t cycle, const std::string& graph_label,
             Clock::time_point begin, double seconds, bool iterated)
{
    if (!TraceRecorder::enabled())
        return;
    TraceRecorder::instance().recordSpan(
        name,
        category == TaskCategory::Comm ? TraceCat::Comm
                                       : TraceCat::Compute,
        rank, cycle, graph_label, begin, seconds,
        iterated ? TraceEvent::kPollRetry : std::uint16_t{0});
}

} // namespace

TaskExecOptions
rankExecOptions(ExecutionSpace& space, const RankWorld& world)
{
    TaskExecOptions options;
    options.space = &space;
    if (world.concurrent()) {
        const RankWorld* peers = &world;
        options.external_abort = [peers]() -> std::string {
            // failed() is a lock-free fast path; the reason (one lock)
            // is only fetched on the failure path itself.
            return peers->failed() ? peers->failureReason()
                                   : std::string();
        };
    }
    return options;
}

TaskId
TaskList::addTask(std::string name, TaskFn fn, std::vector<TaskId> deps,
                  TaskCategory category, int gid)
{
    for (TaskId dep : deps)
        require(dep >= 0 && dep < static_cast<TaskId>(tasks_.size()),
                "task '", name, "' depends on unknown task id ", dep);
    tasks_.push_back({std::move(name), std::move(fn), std::move(deps),
                      category, gid, false, 0.0});
    return static_cast<TaskId>(tasks_.size()) - 1;
}

double
TaskList::criticalPathSeconds() const
{
    std::vector<double> finish(tasks_.size(), 0.0);
    double longest = 0;
    for (std::size_t id = 0; id < tasks_.size(); ++id) {
        double start = 0;
        for (TaskId dep : tasks_[id].deps)
            start = std::max(start, finish[dep]);
        finish[id] = start + tasks_[id].seconds;
        longest = std::max(longest, finish[id]);
    }
    return longest;
}

double
TaskList::categorySeconds(TaskCategory category) const
{
    double total = 0;
    for (const auto& task : tasks_)
        if (task.category == category)
            total += task.seconds;
    return total;
}

void
TaskList::resetRunState()
{
    last_execute_seconds_ = 0;
    for (auto& task : tasks_) {
        task.complete = false;
        task.seconds = 0;
    }
}

std::string
TaskList::incompleteNames() const
{
    std::string names;
    for (const auto& task : tasks_) {
        if (task.complete)
            continue;
        if (!names.empty())
            names += ", ";
        names += task.name;
    }
    // Every stall/deadlock panic routes through here, so the label
    // (e.g. "plan:bounds stage 1") lands in all of their reports.
    if (!label_.empty())
        return "[" + label_ + "] " + names;
    return names;
}

void
TaskList::execute(const TaskExecOptions& options)
{
    resetRunState();
    const auto start = Clock::now();

    struct State
    {
        TaskList* list = nullptr;
        Mutex mutex;
        CondVar cv;
        /** Dependents of task t: dependents[first[t], first[t + 1]). */
        std::vector<std::size_t> first;
        std::vector<TaskId> dependents;
        /** FIFO ring of ready tasks; a task is queued at most once. */
        std::vector<TaskId> ready VIBE_GUARDED_BY(mutex);
        std::size_t ready_head VIBE_GUARDED_BY(mutex) = 0;
        std::size_t ready_size VIBE_GUARDED_BY(mutex) = 0;
        std::vector<int> waiting VIBE_GUARDED_BY(mutex);
        /** Tasks that have returned Iterate at least once. */
        std::vector<char> iterated VIBE_GUARDED_BY(mutex);
        std::size_t done VIBE_GUARDED_BY(mutex) = 0;
        std::size_t inflight VIBE_GUARDED_BY(mutex) = 0;
        /** In-flight tasks that have never iterated (can make real
         *  progress: complete, send messages, unblock dependents). */
        std::size_t inflight_fresh VIBE_GUARDED_BY(mutex) = 0;
        std::uint64_t idle_polls VIBE_GUARDED_BY(mutex) = 0;
        std::uint64_t idle_limit = 0;
        Clock::time_point stall_deadline;
        const std::function<std::string()>* external_abort = nullptr;
        bool failed VIBE_GUARDED_BY(mutex) = false;
        std::exception_ptr error VIBE_GUARDED_BY(mutex);

        void push(TaskId id) VIBE_REQUIRES(mutex)
        {
            ready[(ready_head + ready_size++) % ready.size()] = id;
        }
        TaskId pop() VIBE_REQUIRES(mutex)
        {
            const TaskId id = ready[ready_head];
            ready_head = (ready_head + 1) % ready.size();
            --ready_size;
            return id;
        }
        void failLocked(std::exception_ptr err) VIBE_REQUIRES(mutex)
        {
            if (!failed) {
                failed = true;
                error = std::move(err);
            }
            cv.notify_all();
        }
    };

    const std::size_t n = tasks_.size();
    State state;
    state.list = this;
    state.idle_limit = kStallPolls * n + 64;
    state.stall_deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(kPeerWaitSeconds));
    if (options.external_abort)
        state.external_abort = &options.external_abort;
    // Dependents in CSR form: count each task's dependents, turn the
    // counts into bucket ends, then fill every bucket back to front so
    // it lists its dependents in ascending id order.
    state.first.assign(n + 1, 0);
    for (const Task& task : tasks_)
        for (TaskId dep : task.deps)
            ++state.first[dep];
    std::partial_sum(state.first.begin(), state.first.end(),
                     state.first.begin());
    state.dependents.resize(state.first[n]);
    for (std::size_t id = n; id-- > 0;)
        for (TaskId dep : tasks_[id].deps)
            state.dependents[--state.first[dep]] = static_cast<TaskId>(id);
    {
        // No worker is running yet; the lock only makes the guarded
        // initialization visible to the thread-safety analysis.
        LockGuard lock(state.mutex);
        state.ready.resize(n);
        state.waiting.resize(n);
        state.iterated.assign(n, 0);
        for (std::size_t id = 0; id < n; ++id) {
            state.waiting[id] = static_cast<int>(tasks_[id].deps.size());
            if (state.waiting[id] == 0)
                state.push(static_cast<TaskId>(id));
        }
    }

    auto worker = [](void* body, std::int64_t, std::int64_t, int) {
        State& st = *static_cast<State*>(body);
        TaskList& list = *st.list;
        const std::size_t n = list.tasks_.size();
        UniqueLock lock(st.mutex);
        for (;;) {
            if (st.failed || st.done == n)
                return;
            if (st.ready_size == 0) {
                if (st.inflight == 0) {
                    // No runnable task, none in flight, incomplete
                    // tasks remain: a dependency cycle.
                    st.failLocked(std::make_exception_ptr(PanicError(
                        detail::concat("task list deadlocked with ",
                                       n - st.done,
                                       " incomplete tasks: ",
                                       list.incompleteNames()))));
                    return;
                }
                st.cv.wait(lock);
                continue;
            }
            const TaskId id = st.pop();
            ++st.inflight;
            const bool fresh = !st.iterated[id];
            if (fresh)
                ++st.inflight_fresh;
            lock.unlock();

            TaskStatus status = TaskStatus::Iterate;
            std::exception_ptr err;
            const auto start = Clock::now();
            try {
                status = list.tasks_[id].fn();
            } catch (...) {
                err = std::current_exception();
            }
            const double seconds = secondsSince(start);
            if (!err)
                traceAttempt(list.tasks_[id].name,
                             list.tasks_[id].category, list.trace_rank_,
                             list.trace_cycle_, list.label_, start,
                             seconds, status == TaskStatus::Iterate);
            // Give other pollers and pool peers a chance between
            // fruitless probes of an otherwise idle queue.
            if (!err && status == TaskStatus::Iterate)
                std::this_thread::yield();

            lock.lock();
            --st.inflight;
            if (fresh)
                --st.inflight_fresh;
            list.tasks_[id].seconds += seconds;
            if (err) {
                st.failLocked(std::move(err));
                return;
            }
            if (status == TaskStatus::Complete) {
                list.tasks_[id].complete = true;
                ++st.done;
                st.idle_polls = 0;
                for (std::size_t e = st.first[id]; e < st.first[id + 1];
                     ++e)
                    if (--st.waiting[st.dependents[e]] == 0)
                        st.push(st.dependents[e]);
                st.cv.notify_all();
                continue;
            }
            // Iterate: re-queue the poller behind other ready work.
            st.iterated[id] = 1;
            st.push(id);
            if (st.inflight_fresh == 0) {
                // Every in-flight task is a known repeat-poller. With
                // an abort probe a peer rank's thread may still
                // deliver what these polls wait for, so only the wall
                // clock can call it stuck; otherwise nothing anywhere
                // can, and a bounded poll count suffices.
                if (st.external_abort) {
                    const std::string reason = (*st.external_abort)();
                    if (!reason.empty()) {
                        st.failLocked(std::make_exception_ptr(
                            PanicError(detail::concat(
                                "task list aborted: ", reason,
                                "; incomplete tasks: ",
                                list.incompleteNames()))));
                        return;
                    }
                    if (Clock::now() >= st.stall_deadline) {
                        st.failLocked(std::make_exception_ptr(PanicError(
                            detail::concat(
                                "no task completed before the peer-wait "
                                "deadline; stuck polling tasks: ",
                                list.incompleteNames()))));
                        return;
                    }
                } else if (++st.idle_polls > st.idle_limit) {
                    st.failLocked(std::make_exception_ptr(PanicError(
                        detail::concat(
                            "no task completed in ", st.idle_polls,
                            " consecutive polls; stuck polling tasks: ",
                            list.incompleteNames()))));
                    return;
                }
            } else {
                // A fresh task in flight may still complete and
                // deliver the messages the poller waits for.
                st.idle_polls = 0;
            }
            st.cv.notify_one();
        }
    };

    // One worker loop per pool chunk (the calling thread runs chunk
    // 0); inside a chunk the space's nested-launch rule makes every
    // kernel a task body launches run in-line on that worker, so tasks
    // are the sole unit of concurrency. One worker suffices without a
    // space, at concurrency 1 and for a one-task graph: it runs on the
    // caller, whose kernel launches keep the whole space.
    const int workers =
        options.space && n > 1 ? options.space->concurrency() : 1;
    if (workers > 1)
        options.space->forEachChunk(workers, worker, &state);
    else
        worker(&state, 0, 1, 0);

    // All workers have returned (forEachChunk is a barrier); the lock
    // is for the analysis, not for contention.
    std::exception_ptr error;
    std::size_t done = 0;
    {
        LockGuard lock(state.mutex);
        error = state.error;
        done = state.done;
    }
    last_execute_seconds_ = secondsSince(start);
    if (error)
        std::rethrow_exception(error);
    require(done == n, "task list finished with ", n - done,
            " incomplete tasks: ", incompleteNames());
}

} // namespace vibe
