#include "driver/task_list.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <exception>
#include <thread>

#include "exec/execution_space.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/thread_safety.hpp"

namespace vibe {

namespace {

using Clock = std::chrono::steady_clock;

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

void
TaskList::execute(int max_passes)
{
    TaskExecOptions options;
    options.max_passes = max_passes;
    execute(options);
}

void
TaskList::execute(const TaskExecOptions& options)
{
    resetRunState();
    const auto start = Clock::now();
    if (options.space && options.space->concurrency() > 1 &&
        tasks_.size() > 1)
        executeThreaded(options, *options.space);
    else
        executeSerial(options);
    last_execute_seconds_ = secondsSince(start);
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
    completion_order_.clear();
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
TaskList::executeSerial(const TaskExecOptions& options)
{
    std::size_t done = 0;
    int stalled_passes = 0;
    const auto stall_deadline =
        Clock::now() +
        std::chrono::duration<double>(options.external_stall_seconds);
    for (int pass = 0;
         (options.external_progress || pass < options.max_passes) &&
         done < tasks_.size();
         ++pass) {
        bool any_ran = false;
        std::size_t completed_this_pass = 0;
        for (auto& task : tasks_) {
            if (task.complete)
                continue;
            bool ready = true;
            for (TaskId dep : task.deps)
                if (!tasks_[dep].complete) {
                    ready = false;
                    break;
                }
            if (!ready)
                continue;
            any_ran = true;
            const auto start = Clock::now();
            const TaskStatus status = task.fn();
            const double seconds = secondsSince(start);
            task.seconds += seconds;
            traceAttempt(task.name, task.category, trace_rank_,
                         trace_cycle_, label_, start, seconds,
                         status == TaskStatus::Iterate);
            if (status == TaskStatus::Complete) {
                task.complete = true;
                completion_order_.push_back(task.name);
                ++done;
                ++completed_this_pass;
            }
        }
        if (!any_ran && done < tasks_.size()) {
            // Nothing is runnable yet incomplete tasks remain: a
            // dependency cycle.
            panic("task list deadlocked with ", tasks_.size() - done,
                  " incomplete tasks: ", incompleteNames());
        }
        // Progress stall: tasks ran but only ever returned Iterate. A
        // permanently-blocked polling task must be named, not burn
        // every remaining pass into a generic pass-bound failure. When
        // progress can come from a peer rank's thread, pass counts say
        // nothing — yield and fall back to a wall-clock bound.
        if (any_ran && completed_this_pass == 0) {
            if (options.external_progress) {
                if (options.external_abort) {
                    const std::string reason = options.external_abort();
                    if (!reason.empty())
                        panic("task list aborted: ", reason,
                              "; incomplete tasks: ", incompleteNames());
                }
                if (Clock::now() >= stall_deadline)
                    panic("no task completed within ",
                          options.external_stall_seconds,
                          "s while waiting on peer ranks; stuck "
                          "polling tasks: ",
                          incompleteNames());
                std::this_thread::yield();
            } else if (++stalled_passes >= options.stall_passes) {
                panic("no task completed in ", stalled_passes,
                      " consecutive passes; stuck polling tasks: ",
                      incompleteNames());
            }
        } else {
            stalled_passes = 0;
        }
    }
    require(done == tasks_.size(), "task list did not complete within ",
            options.max_passes,
            " passes; incomplete tasks: ", incompleteNames());
}

void
TaskList::executeThreaded(const TaskExecOptions& options,
                          ExecutionSpace& space)
{
    struct State
    {
        TaskList* list = nullptr;
        Mutex mutex;
        CondVar cv;
        std::deque<TaskId> ready VIBE_GUARDED_BY(mutex);
        std::vector<int> waiting VIBE_GUARDED_BY(mutex);
        std::vector<std::vector<TaskId>> dependents;
        /** Tasks that have returned Iterate at least once. */
        std::vector<char> iterated VIBE_GUARDED_BY(mutex);
        std::size_t done VIBE_GUARDED_BY(mutex) = 0;
        std::size_t inflight VIBE_GUARDED_BY(mutex) = 0;
        /** In-flight tasks that have never iterated (can make real
         *  progress: complete, send messages, unblock dependents). */
        std::size_t inflight_fresh VIBE_GUARDED_BY(mutex) = 0;
        std::uint64_t idle_polls VIBE_GUARDED_BY(mutex) = 0;
        std::uint64_t idle_limit = 0;
        bool external_progress = false;
        Clock::time_point stall_deadline;
        const std::function<std::string()>* external_abort = nullptr;
        bool failed VIBE_GUARDED_BY(mutex) = false;
        std::exception_ptr error VIBE_GUARDED_BY(mutex);

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
    state.dependents.assign(n, {});
    state.idle_limit =
        static_cast<std::uint64_t>(options.stall_passes) * n + 64;
    state.external_progress = options.external_progress;
    state.stall_deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               options.external_stall_seconds));
    if (options.external_abort)
        state.external_abort = &options.external_abort;
    {
        // No worker is running yet; the lock only makes the guarded
        // initialization visible to the thread-safety analysis.
        LockGuard lock(state.mutex);
        state.waiting.assign(n, 0);
        state.iterated.assign(n, 0);
        for (std::size_t id = 0; id < n; ++id) {
            state.waiting[id] = static_cast<int>(tasks_[id].deps.size());
            for (TaskId dep : tasks_[id].deps)
                state.dependents[dep].push_back(static_cast<TaskId>(id));
            if (state.waiting[id] == 0)
                state.ready.push_back(static_cast<TaskId>(id));
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
            if (st.ready.empty()) {
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
            const TaskId id = st.ready.front();
            st.ready.pop_front();
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
                list.completion_order_.push_back(list.tasks_[id].name);
                ++st.done;
                st.idle_polls = 0;
                for (TaskId dep : st.dependents[id])
                    if (--st.waiting[dep] == 0)
                        st.ready.push_back(dep);
                st.cv.notify_all();
                continue;
            }
            // Iterate: re-queue the poller behind other ready work.
            st.iterated[id] = 1;
            st.ready.push_back(id);
            if (st.inflight_fresh == 0) {
                // Every in-flight task is a known repeat-poller. With
                // external progress a peer rank's thread may still
                // deliver what these polls wait for, so only the wall
                // clock can call it stuck; otherwise nothing anywhere
                // can, and a bounded poll count suffices.
                if (st.external_progress) {
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

    // Dispatch one worker loop per pool chunk (the calling thread runs
    // chunk 0). Inside a chunk the space's nested-launch rule makes
    // every kernel launched by a task body run in-line on that worker,
    // so tasks are the sole unit of concurrency.
    space.forEachChunk(space.concurrency(), worker, &state);

    // All workers have joined (forEachChunk is a barrier); the lock is
    // for the analysis, not for contention.
    std::exception_ptr error;
    std::size_t done = 0;
    {
        LockGuard lock(state.mutex);
        error = state.error;
        done = state.done;
    }
    if (error)
        std::rethrow_exception(error);
    require(done == n, "threaded task list finished with ", n - done,
            " incomplete tasks: ", incompleteNames());
}

} // namespace vibe
