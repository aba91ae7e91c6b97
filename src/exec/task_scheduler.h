#ifndef GYO_EXEC_TASK_SCHEDULER_H_
#define GYO_EXEC_TASK_SCHEDULER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gyo {
namespace exec {

/// A dependency-counting task DAG, built once and handed to
/// TaskScheduler::RunGraph. Tasks are identified by the dense int returned
/// from AddTask; AddDependency(a, b) orders b before a. The graph may be run
/// once per construction (RunGraph consumes the dependency counters).
class TaskGraph {
 public:
  using TaskFn = std::function<void()>;

  /// Registers a task; returns its id (dense, starting at 0). Higher
  /// `priority` tasks dispatch before lower ones whenever both are ready
  /// (ties drain FIFO); the physical plan uses this to run critical-path
  /// statements first. Priority never overrides a dependency.
  int AddTask(TaskFn fn, int priority = 0);

  /// Declares that `task` must not start before `dep` has finished.
  /// Duplicate edges are allowed and counted once.
  void AddDependency(int task, int dep);

  int NumTasks() const { return static_cast<int>(tasks_.size()); }

  /// Longest dependency chain, in tasks (0 for an empty graph) — the lower
  /// bound on parallel makespan in task units.
  int CriticalPathLength() const;

 private:
  friend class TaskScheduler;
  struct Task {
    TaskFn fn;
    std::vector<int> successors;
    int num_deps = 0;
    int priority = 0;
  };
  std::vector<Task> tasks_;
  std::vector<std::vector<int>> deps_;  // per task, for dedup + critical path
};

/// A fixed pool of worker threads executing dependency-ordered task DAGs and
/// morsel-style parallel loops. This is the core of the exec subsystem: the
/// PhysicalPlan runtime maps program statements onto RunGraph (statement-level
/// parallelism) and the rel/ops kernels call ParallelFor from inside those
/// tasks (intra-operator morsel parallelism).
///
/// Scheduling is one shared priority queue: a mutex-guarded map of FIFO
/// buckets, highest priority first, drained by the workers and by every
/// participating caller (morsel-driven dispatch, Leis et al., SIGMOD 2014).
/// Ready graph tasks enter at their TaskGraph priority; ParallelFor morsels
/// enter above every graph priority, so in-flight operators finish before
/// new statements start.
///
/// Multiple independent TaskGraphs may be in flight at once: RunGraph may be
/// called concurrently from any number of external threads (one per query in
/// the ExecutorPool). Each invocation carries its own graph-scoped dependency
/// counters and completion count — every caller participates in execution,
/// so a graph always completes even when all workers are busy with other
/// graphs. Priorities compare across graphs: a ready high-priority task of a
/// later graph dispatches before a ready lower-priority task of an earlier
/// one.
///
/// Determinism: scheduling only decides WHERE a job runs. Result bytes are
/// governed by the kernels' morsel-indexed merges, so dispatch order never
/// changes deterministic-mode output.
///
/// threads == 1 is the serial specialization: no worker threads are spawned
/// and every job executes inline on the calling thread in deterministic
/// (priority bucket, then FIFO / loop) order. Program::Execute runs on
/// exactly this path.
class TaskScheduler {
 public:
  struct Options {
    /// Pool width (callers participate as the extra thread). Must be >= 1.
    int threads = 1;

    /// Test hook: worker 0 parks for this long before its first pop
    /// (interruptible by shutdown), so with real work in flight the other
    /// threads and the callers must run it. 0 (default) = off. Production
    /// code never sets this; the bit-identity and priority tests do.
    int worker0_start_delay_ms = 0;
  };

  /// Spawns `threads - 1` workers (the caller participates as the remaining
  /// thread). `threads` must be >= 1.
  explicit TaskScheduler(int threads);
  explicit TaskScheduler(const Options& options);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  int threads() const { return threads_; }

  /// Runs every task of `graph` respecting its dependencies; blocks until
  /// all have finished. The calling thread participates in execution. Must
  /// not be called from inside a task, but may be called concurrently from
  /// any number of distinct external threads. Each TaskGraph may be run
  /// once.
  void RunGraph(TaskGraph& graph);

  /// Runs body(chunk) for every chunk in [0, num_chunks), distributing
  /// chunks over the pool via an atomic claim counter (morsel dispatch);
  /// blocks until every chunk has run. The calling thread participates, so
  /// completion never depends on worker availability — callable both from
  /// outside the pool and from inside a RunGraph task. Chunk execution
  /// order across threads is unspecified; with threads() == 1 the loop runs
  /// inline in increasing chunk order.
  void ParallelFor(int64_t num_chunks,
                   const std::function<void(int64_t)>& body);

 private:
  using Job = std::function<void()>;
  struct GraphRunState;  // shared state of one RunGraph invocation

  void Enqueue(int priority, Job job);
  /// Pops the front of the highest-priority bucket; mu_ must be held and
  /// queue_ non-empty.
  Job PopLocked();
  void WorkerLoop(int index);
  void EnqueueGraphTask(const std::shared_ptr<GraphRunState>& state, int id);
  void RunGraphTask(const std::shared_ptr<GraphRunState>& state, int id);

  const int threads_;
  const int worker0_start_delay_ms_;
  std::vector<std::thread> workers_;

  std::mutex mu_;  // guards queue_ and stopping_
  // Wakes workers and participating RunGraph callers: a job was queued, a
  // graph finished, or the pool is stopping.
  std::condition_variable queue_cv_;
  std::condition_variable park_cv_;  // ends worker 0's test-hook park early
  // Priority buckets, highest first; each bucket drains FIFO. Emptied
  // buckets are erased so begin() is always the top priority.
  std::map<int, std::deque<Job>, std::greater<int>> queue_;
  bool stopping_ = false;
};

}  // namespace exec
}  // namespace gyo

#endif  // GYO_EXEC_TASK_SCHEDULER_H_
