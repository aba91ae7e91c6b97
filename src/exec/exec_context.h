#ifndef GYO_EXEC_EXEC_CONTEXT_H_
#define GYO_EXEC_EXEC_CONTEXT_H_

#include <cstdint>
#include <vector>

namespace gyo {
namespace exec {

class ExecutorPool;

/// Per-query execution metrics reported by the admission-controlled runtime
/// (see exec/executor_pool.h). All durations are seconds.
struct QueryStats {
  /// Time spent queued in the admission controller before the query was
  /// allowed to run (0 when a slot was free, and always 0 for serial
  /// threads == 1 execution, which bypasses admission).
  double queue_wait_seconds = 0.0;

  /// Wall time from admission to completion of the last statement.
  double run_time_seconds = 0.0;

  /// Statement tasks executed for this query (one per program statement).
  int64_t tasks = 0;

  /// Data morsels dispatched by this query's operator kernels (hash-build
  /// and probe passes). 0 when every operator ran serially — probe sides of
  /// at most kMinParallelMorsels morsels (UsePartitionedKernel in
  /// rel/ops.h), or a single-thread pool.
  int64_t morsels = 0;

  /// Peak bytes of live relation-state arenas (base copies + statement
  /// results) during this query's execution. With state retirement (see
  /// ExecContext::retire_consumed) states are freed as their last reader
  /// finishes, so this tracks the live frontier rather than the total
  /// footprint. Note: at threads != 1 the exact peak depends on task
  /// completion order, so it is reproducible only up to scheduling.
  int64_t peak_state_bytes = 0;

  /// Relation states freed by retirement (0 unless retire_consumed).
  int64_t retired_states = 0;

  /// Probe rows whose key hash a per-partition Bloom filter rejected in the
  /// parallel partitioned builds, skipping that partition's bucket-chain
  /// walk entirely (sideways information passing; 0 on serial runs).
  int64_t bloom_partition_skips = 0;

  /// Probe rows pruned by any Bloom filter — the serial single-filter
  /// rejections plus the partitioned ones above — before a bucket chain was
  /// walked. Bloom filters have no false negatives, so pruning never changes
  /// results; this counts saved work only.
  int64_t probe_rows_pruned = 0;

  /// Always 0. These three counters measured work stealing and partition
  /// affinity, which the single shared-queue scheduler no longer has; the
  /// fields stay only because perfbench/loadgen reads them (and so reports
  /// exec.tasks_stolen / exec.affinity_hit_ratio as 0). Nothing writes them
  /// and the wire carries none of them.
  int64_t tasks_stolen = 0;
  int64_t affinity_hits = 0;
  int64_t affinity_misses = 0;

  /// Queries already waiting in the admission controller when this query
  /// arrived (0 = admitted straight onto a free slot). The queue-pressure
  /// observable behind queue_wait_seconds; always 0 for serial execution.
  int64_t queue_depth_at_admit = 0;

  /// 1 when this query's program/plan came out of the plan cache
  /// (cache::PlanCache) instead of being rebuilt from the schema; 0 when it
  /// was built fresh (a miss, or no cache in the path).
  int64_t plan_cache_hits = 0;

  /// 1 when gyo_serve replayed this query's full answer from the result
  /// cache (cache::ResultCache) instead of executing it; 0 otherwise.
  int64_t state_cache_hits = 0;

  /// Semijoin-fixpoint rounds actually executed. Under the delta-round
  /// schedule a round only processes relations with a neighbor that shrank
  /// last round. Deterministic for a given start state.
  int64_t delta_rounds = 0;

  /// Input rows scanned by executed fixpoint semijoins (lhs + rhs rows of
  /// every statement that actually ran); skipped clean-pair semijoins
  /// contribute nothing. Deterministic for a given start state.
  int64_t rows_rescanned = 0;

  /// Probe rows pruned by a sideways-information-passing filter: a Bloom
  /// filter over a LATER chain statement's build side, published through
  /// the per-query SIP registry (see physical_plan.cc) and consulted before
  /// the consuming Semijoin's own hash work. No false negatives, so the
  /// final states are untouched; deterministic at every thread count (the
  /// filter builds are ordered before their consumers by dependency edges).
  int64_t sip_rows_pruned = 0;

  /// Probe rows skipped by zone-map disjointness: a Semijoin whose key
  /// ranges in the two inputs provably cannot overlap skips the whole probe
  /// (the result is empty either way). Counts the probe rows never hashed.
  /// Deterministic — a pure function of the input states.
  int64_t zone_map_skips = 0;
};

/// Runtime knobs for executing programs (and the reducer) in parallel.
/// Default-constructed context is the serial engine: one thread, inline
/// execution — Program::Execute runs with exactly these settings.
struct ExecContext {
  /// Worker threads (>= 1). 1 = serial inline execution on the calling
  /// thread: no pool, no admission control. Any other value routes the query
  /// through an ExecutorPool (see `pool`), whose fixed pool width — not this
  /// field — determines the actual parallelism.
  int threads = 1;

  /// Probe rows per morsel in the parallel operator kernels. 0 (the default)
  /// auto-tunes per operator from the probe relation's arity so one morsel's
  /// values stay ~L2-resident (see AutoMorselRows in rel/ops.h). Operators
  /// whose probe side spans at most kMinParallelMorsels morsels run serially
  /// inside their statement task (UsePartitionedKernel in rel/ops.h;
  /// statement-level parallelism still applies).
  int64_t morsel_rows = 0;

  /// When true (default), parallel operators merge their per-morsel outputs
  /// in morsel order, making every produced relation bit-identical — same
  /// physical row order, same canonical flag — to a serial run. This holds
  /// per query even when many queries share one pool. When false, morsel
  /// outputs merge in completion order: same set of rows, unspecified
  /// physical order (and Semijoin no longer propagates canonical form).
  bool deterministic = true;

  /// Pool to run on when threads != 1. nullptr = the lazily-initialized
  /// process-wide ExecutorPool::Global() (sized by GYO_EXEC_THREADS or
  /// hardware_concurrency; see executor_pool.h).
  ExecutorPool* pool = nullptr;

  /// Admission fairness class: the controller round-robins free slots across
  /// submitter ids, so one hot submitter cannot starve the others. 0 (the
  /// default) lumps every caller into one FIFO class.
  uint64_t submitter = 0;

  /// State retirement: when true, every relation state (base copy or
  /// statement result) that is read by at least one statement is freed —
  /// replaced by an empty relation over its schema — the moment its last
  /// reading statement finishes (the reader counts come from PhysicalPlan's
  /// compile-time dataflow analysis). Sink states (read by no statement)
  /// always survive. Freed slots come back as empty relations in the
  /// returned state vector, so only enable this when the caller consumes
  /// sinks and/or retained slots — the compiled full reducer does exactly
  /// that, which brings its peak memory back near the serial reducer's
  /// instead of holding all 2(n−1) intermediate semijoin states alive.
  bool retire_consumed = false;

  /// Relation ids (program numbering: base 0..num_base-1, then statement
  /// results) exempt from retirement — states the caller reads afterwards
  /// even though some statement also consumes them. Ignored unless
  /// retire_consumed. The full reducer retains each node's final state
  /// (e.g. the root's, which the downward pass consumes).
  const std::vector<int>* retain_states = nullptr;

  /// Sideways information passing: when true (default), the physical plan's
  /// dataflow analysis publishes each eligible chain statement's build-side
  /// Bloom filter into a per-query SIP registry and upstream Semijoins
  /// pre-filter their probes against it (see physical_plan.cc). Results are
  /// identical either way (the filters have no false negatives); the flag
  /// exists for A/B testing and for the fixpoint reducer, which disables
  /// SIP to keep its work-accounting counters (rows_rescanned,
  /// effective steps) comparable across rounds.
  bool enable_sip = true;

  /// When non-null, receives this query's QueryStats on completion.
  QueryStats* query_stats = nullptr;
};

}  // namespace exec
}  // namespace gyo

#endif  // GYO_EXEC_EXEC_CONTEXT_H_
