/**
 * @file task_list.hpp
 * Hierarchical task-based execution (paper §II-C): Parthenon sequences
 * each timestep stage as a dependency graph of tasks; polling tasks
 * (e.g. ReceiveBoundBufs) may return Iterate to be re-run until their
 * communication completes.
 *
 * One executor runs every graph: workers pull tasks from a shared FIFO
 * ready queue, and Iterate tasks are re-queued as polling tasks behind
 * other ready work. On an ExecutionSpace of concurrency > 1 one worker
 * loop runs per pool chunk; kernels launched from inside a task body
 * then degrade to in-line execution on the worker (the space's
 * nested-launch rule), so a task is a unit of concurrency exactly as
 * in Parthenon's one-task-per-stream model. Work too wide for one
 * worker is therefore split into several tasks by its builder — the
 * fused boundary phases run one task per plan sub-pack. Without a
 * space, at concurrency 1, or for a one-task graph, the single worker
 * runs in-line on the calling thread.
 *
 * The executor records wall time per task (summed over Iterate
 * retries) and aggregates it by TaskCategory, which is what the
 * fig14 overlap bench uses to report how much exchange time hides
 * behind interior compute.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace vibe {

class ExecutionSpace;
class RankWorld;

/** Result of running one task once. */
enum class TaskStatus
{
    Complete, ///< Done; dependents may now run.
    Iterate,  ///< Not finished (e.g. waiting on messages); re-run later.
};

/** Coarse task classification for overlap accounting. */
enum class TaskCategory
{
    Compute, ///< Interior kernel work (fluxes, divergence, updates).
    Comm,    ///< Boundary pack/poll/unpack and flux-correction traffic.
};

using TaskId = int;
using TaskFn = std::function<TaskStatus()>;

/** Execution parameters for TaskList::execute. */
struct TaskExecOptions
{
    /**
     * Space the worker loops run on; nullptr runs the graph on the
     * calling thread, as a SerialSpace would.
     */
    ExecutionSpace* space = nullptr;
    /**
     * Abort probe for graphs whose polls wait on progress from outside
     * the graph (another rank's driver thread delivering mailbox
     * messages). Installing one tells the executor that such progress
     * exists: when only repeat-pollers are in flight it calls the
     * probe, and judges a stall by wall clock (kPeerWaitSeconds)
     * instead of a poll count — a poll loop cannot know how long a
     * peer needs. A non-empty return panics at once with that string
     * as the cause: it is the failing rank's original error message,
     * so every unwinding peer reports the root cause and not just "a
     * peer failed".
     */
    std::function<std::string()> external_abort;
};

/**
 * Options for a graph one rank runs on `space`: the space, plus, on a
 * concurrent world (a rank team), the abort probe. There the graph's
 * polls wait on messages other ranks' driver threads produce, and the
 * probe lets a peer failure abort promptly instead of burning the
 * peer-wait deadline. Every stage, exchange and checkpoint graph runs
 * with these options.
 */
TaskExecOptions rankExecOptions(ExecutionSpace& space,
                                const RankWorld& world);

/**
 * A task graph executor with Parthenon-style semantics. Tasks are
 * added with explicit dependencies; execute() runs them to completion
 * on the configured space. A cycle panics immediately; a polling
 * task that stops making progress panics with the incomplete task
 * names after the stall bound.
 */
class TaskList
{
  public:
    /**
     * Add a task.
     * @param deps Tasks that must complete before this one runs.
     * @param category Overlap-accounting class (Compute by default).
     * @param gid The one mesh block whose work this task is, or
     *        kNoBlock for tasks spanning several blocks (sub-packs,
     *        rank-pair polls). Measured-cost load balancing charges a
     *        task's wall time to this block.
     * @return Id usable as a dependency for later tasks.
     */
    TaskId addTask(std::string name, TaskFn fn,
                   std::vector<TaskId> deps = {},
                   TaskCategory category = TaskCategory::Compute,
                   int gid = kNoBlock);

    /** gid of a task attributed to no single block. */
    static constexpr int kNoBlock = -1;

    /** Number of tasks added. */
    std::size_t size() const { return tasks_.size(); }

    /**
     * Label this graph for diagnostics: stall/deadlock panics prefix
     * the incomplete-task listing with it, so a report names the graph
     * (e.g. the boundary-plan phase) and not just its task names.
     */
    void setLabel(std::string label) { label_ = std::move(label); }
    const std::string& label() const { return label_; }

    /** Run all tasks to completion. */
    void execute(const TaskExecOptions& options = {});

    /** Wall seconds of the last execute() call. */
    double lastExecuteSeconds() const { return last_execute_seconds_; }

    /**
     * Attribute this graph's task spans to (rank, cycle) in the obs
     * timeline. The executor emits one span per task *attempt*
     * (attempts that return Iterate carry TraceEvent::kPollRetry, so
     * non-retry span counts are deterministic: exactly one completing
     * attempt per task). No-op overhead when tracing is off.
     */
    void setTrace(int rank, std::int64_t cycle)
    {
        trace_rank_ = rank;
        trace_cycle_ = cycle;
    }

    /**
     * Longest dependency chain of the last execute(), in summed task
     * seconds — the wall-clock lower bound no amount of concurrency
     * can beat. A single forward pass suffices because addTask
     * guarantees every dependency has a lower id.
     */
    double criticalPathSeconds() const;

    /**
     * Summed task wall seconds of the last execute() for one category
     * (Iterate retries included). Categories can sum to more than
     * lastExecuteSeconds() when tasks overlap — that surplus is the
     * communication time hidden behind compute.
     */
    double categorySeconds(TaskCategory category) const;

    /**
     * Visit every task's (name, category, measured seconds, gid) after
     * an execute(), so a visitor can re-attribute this graph's wall
     * clocks to blocks (the measured-cost load balancer's input).
     */
    template <typename Fn>
    void forEachTask(Fn&& fn) const
    {
        for (const Task& task : tasks_)
            fn(task.name, task.category, task.seconds, task.gid);
    }

  private:
    struct Task
    {
        std::string name;
        TaskFn fn;
        std::vector<TaskId> deps;
        TaskCategory category = TaskCategory::Compute;
        int gid = kNoBlock;
        bool complete = false;
        double seconds = 0;
    };

    void resetRunState();
    std::string incompleteNames() const;

    std::vector<Task> tasks_;
    std::string label_;
    double last_execute_seconds_ = 0;
    int trace_rank_ = 0;
    std::int64_t trace_cycle_ = -1;
};

} // namespace vibe
