#include "exec/task_scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>

#include "util/check.h"

namespace gyo {
namespace exec {

namespace {

// ParallelFor morsels dispatch above every graph-task priority: finishing an
// operator already in flight shortens the makespan more than starting a new
// statement.
constexpr int kMorselPriority = std::numeric_limits<int>::max();

}  // namespace

int TaskGraph::AddTask(TaskFn fn, int priority) {
  tasks_.push_back(Task{std::move(fn), {}, 0, priority});
  deps_.emplace_back();
  return static_cast<int>(tasks_.size()) - 1;
}

void TaskGraph::AddDependency(int task, int dep) {
  GYO_CHECK(task >= 0 && task < NumTasks());
  GYO_CHECK(dep >= 0 && dep < NumTasks());
  GYO_CHECK_MSG(dep != task, "task %d cannot depend on itself", task);
  std::vector<int>& d = deps_[static_cast<size_t>(task)];
  if (std::find(d.begin(), d.end(), dep) != d.end()) return;
  d.push_back(dep);
  tasks_[static_cast<size_t>(dep)].successors.push_back(task);
  ++tasks_[static_cast<size_t>(task)].num_deps;
}

int TaskGraph::CriticalPathLength() const {
  // Longest chain via Kahn's algorithm (also proves acyclicity: a cycle
  // leaves tasks unprocessed and the depth of those is never counted, which
  // RunGraph separately rejects).
  const int n = NumTasks();
  std::vector<int> pending(static_cast<size_t>(n));
  std::vector<int> depth(static_cast<size_t>(n), 1);
  std::vector<int> ready;
  for (int i = 0; i < n; ++i) {
    pending[static_cast<size_t>(i)] = tasks_[static_cast<size_t>(i)].num_deps;
    if (pending[static_cast<size_t>(i)] == 0) ready.push_back(i);
  }
  int best = 0;
  while (!ready.empty()) {
    int v = ready.back();
    ready.pop_back();
    best = std::max(best, depth[static_cast<size_t>(v)]);
    for (int succ : tasks_[static_cast<size_t>(v)].successors) {
      depth[static_cast<size_t>(succ)] =
          std::max(depth[static_cast<size_t>(succ)],
                   depth[static_cast<size_t>(v)] + 1);
      if (--pending[static_cast<size_t>(succ)] == 0) ready.push_back(succ);
    }
  }
  return best;
}

// Shared state of one RunGraph invocation. Jobs capture it by shared_ptr so
// a job still queued or running when the caller's RunGraph frame unwinds
// never dangles. Every concurrent RunGraph invocation owns one of these,
// which is what keeps independent graphs independent: dependency counters
// and the completion count are graph-scoped; only the job queue is shared.
struct TaskScheduler::GraphRunState {
  TaskGraph* graph = nullptr;
  // Cached graph->NumTasks(): the final done increment releases the caller
  // to destroy the graph, so nothing may dereference `graph` after it.
  int num_tasks = 0;
  std::vector<std::atomic<int>> pending;
  std::atomic<int> done{0};
  explicit GraphRunState(size_t n) : pending(n) {}
};

TaskScheduler::TaskScheduler(int threads)
    : TaskScheduler(Options{threads, 0}) {}

TaskScheduler::TaskScheduler(const Options& options)
    : threads_(options.threads),
      worker0_start_delay_ms_(options.worker0_start_delay_ms) {
  GYO_CHECK_MSG(threads_ >= 1, "scheduler needs at least one thread, got %d",
                threads_);
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  for (int i = 0; i < threads_ - 1; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

TaskScheduler::~TaskScheduler() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  queue_cv_.notify_all();
  park_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void TaskScheduler::Enqueue(int priority, Job job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_[priority].push_back(std::move(job));
  }
  queue_cv_.notify_one();
}

TaskScheduler::Job TaskScheduler::PopLocked() {
  std::deque<Job>& bucket = queue_.begin()->second;
  Job job = std::move(bucket.front());
  bucket.pop_front();
  if (bucket.empty()) queue_.erase(queue_.begin());
  return job;
}

void TaskScheduler::WorkerLoop(int index) {
  std::unique_lock<std::mutex> lock(mu_);
  if (index == 0 && worker0_start_delay_ms_ > 0) {
    // Test hook: park before the first pop so the other threads must run
    // the work. A separate condition variable keeps the park from swallowing
    // a queue_cv_ wakeup meant for a thread that would run the job.
    park_cv_.wait_for(lock, std::chrono::milliseconds(worker0_start_delay_ms_),
                      [this] { return stopping_; });
  }
  for (;;) {
    queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and every queued job has run
    Job job = PopLocked();
    lock.unlock();
    job();
    lock.lock();
  }
}

void TaskScheduler::EnqueueGraphTask(
    const std::shared_ptr<GraphRunState>& state, int id) {
  Enqueue(state->graph->tasks_[static_cast<size_t>(id)].priority,
          [this, state, id] { RunGraphTask(state, id); });
}

// Executes task `id`: run its fn, release successors whose dependency count
// hits zero, and wake the RunGraph caller after the final task. The job
// closures capture only `this` and the shared state, never RunGraph's stack.
void TaskScheduler::RunGraphTask(const std::shared_ptr<GraphRunState>& state,
                                 int id) {
  TaskGraph::Task& t = state->graph->tasks_[static_cast<size_t>(id)];
  t.fn();
  for (int succ : t.successors) {
    if (state->pending[static_cast<size_t>(succ)].fetch_sub(
            1, std::memory_order_acq_rel) == 1) {
      EnqueueGraphTask(state, succ);
    }
  }
  int finished = state->done.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (finished == state->num_tasks) {
    // The caller sleeps on queue_cv_ among the workers, so only notify_all
    // is sure to reach it. Taking mu_ orders the wakeup after the caller's
    // predicate check.
    std::lock_guard<std::mutex> lock(mu_);
    queue_cv_.notify_all();
  }
}

void TaskScheduler::RunGraph(TaskGraph& graph) {
  const int n = graph.NumTasks();
  if (n == 0) return;

  // Reject cyclic graphs up front (a cycle would hang the drain loop).
  {
    std::vector<int> pending(static_cast<size_t>(n));
    std::vector<int> ready;
    int seen = 0;
    for (int i = 0; i < n; ++i) {
      pending[static_cast<size_t>(i)] =
          graph.tasks_[static_cast<size_t>(i)].num_deps;
      if (pending[static_cast<size_t>(i)] == 0) ready.push_back(i);
    }
    while (!ready.empty()) {
      int v = ready.back();
      ready.pop_back();
      ++seen;
      for (int succ : graph.tasks_[static_cast<size_t>(v)].successors) {
        if (--pending[static_cast<size_t>(succ)] == 0) ready.push_back(succ);
      }
    }
    GYO_CHECK_MSG(seen == n, "task graph has a dependency cycle (%d of %d "
                  "tasks reachable)", seen, n);
  }

  auto state = std::make_shared<GraphRunState>(static_cast<size_t>(n));
  state->graph = &graph;
  state->num_tasks = n;
  for (int i = 0; i < n; ++i) {
    state->pending[static_cast<size_t>(i)].store(
        graph.tasks_[static_cast<size_t>(i)].num_deps,
        std::memory_order_relaxed);
  }

  // Seed the initially-ready tasks in id order (deterministic execution
  // order for the threads == 1 inline drain: priority bucket first, then
  // seed order). This must test the static num_deps, not the live pending
  // counters: a worker may already be cascading through earlier seeds, and a
  // task it just released would read as pending == 0 here and get enqueued
  // twice.
  for (int i = 0; i < n; ++i) {
    if (graph.tasks_[static_cast<size_t>(i)].num_deps == 0) {
      EnqueueGraphTask(state, i);
    }
  }

  // The caller participates: it runs queued jobs (this graph's tasks, other
  // graphs' tasks, ParallelFor morsels) until every task of *this* graph has
  // finished, and sleeps only while the queue is empty and tasks are still
  // in flight on other threads.
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    queue_cv_.wait(lock, [&] {
      return state->done.load(std::memory_order_acquire) == n ||
             !queue_.empty();
    });
    if (state->done.load(std::memory_order_acquire) == n) break;
    Job job = PopLocked();
    lock.unlock();
    job();
    lock.lock();
  }
  // The wakeup that ended the wait may have been an Enqueue's notify_one,
  // meant for a thread that would run the job; pass it on.
  if (!queue_.empty()) queue_cv_.notify_one();
}

void TaskScheduler::ParallelFor(int64_t num_chunks,
                                const std::function<void(int64_t)>& body) {
  if (num_chunks <= 0) return;
  if (threads_ == 1 || num_chunks == 1) {
    for (int64_t c = 0; c < num_chunks; ++c) body(c);
    return;
  }

  // Morsel dispatch: an atomic claim counter shared by the caller and up to
  // threads() - 1 queued helper jobs. The caller claims chunks too, so the
  // loop completes even when every worker is busy elsewhere; a helper that
  // runs after all chunks are claimed exits immediately (it keeps the state
  // alive via shared_ptr, so late execution is harmless). `body` is only
  // dereferenced for a successfully claimed chunk, and the caller blocks
  // until all claimed chunks are done, so the pointer never dangles.
  struct PFState {
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    int64_t chunks = 0;
    const std::function<void(int64_t)>* body = nullptr;
    std::mutex m;
    std::condition_variable cv;
  };
  auto state = std::make_shared<PFState>();
  state->chunks = num_chunks;
  state->body = &body;

  auto claim_loop = [](PFState* s) {
    for (;;) {
      int64_t c = s->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= s->chunks) break;
      (*s->body)(c);
      s->done.fetch_add(1, std::memory_order_acq_rel);
    }
    // Wake the caller in case this participant ran the final chunk. Taking
    // the lock orders the wakeup after the caller's predicate check.
    std::lock_guard<std::mutex> lock(s->m);
    s->cv.notify_all();
  };

  const int64_t helpers =
      std::min<int64_t>(static_cast<int64_t>(threads_) - 1, num_chunks - 1);
  for (int64_t h = 0; h < helpers; ++h) {
    std::shared_ptr<PFState> st = state;
    Enqueue(kMorselPriority, [st, claim_loop] { claim_loop(st.get()); });
  }

  claim_loop(state.get());

  // Every chunk is claimed by now (the caller's loop exits only on counter
  // exhaustion); wait for helpers to finish their in-flight chunks.
  std::unique_lock<std::mutex> lock(state->m);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == num_chunks;
  });
}

}  // namespace exec
}  // namespace gyo
