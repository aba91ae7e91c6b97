// Exec runtime: PhysicalPlan dataflow compilation, parallel-vs-serial
// equivalence over random schemas/states for every solver strategy at 1–8
// threads, parallel operator kernels (morsel probe + partitioned build),
// the parallel full reducer, and the eager Program validation errors.
//
// Parallel contexts pin an explicit ExecutorPool of the tested width (rather
// than borrowing the process-wide pool, which sizes itself to the host) so
// the multi-thread paths are exercised even on single-core CI runners.

#include "exec/physical_plan.h"

#include <limits>
#include <memory>
#include <vector>

#include "exec/executor_pool.h"
#include "exec/task_scheduler.h"
#include "gtest/gtest.h"
#include "rel/ops.h"
#include "rel/program.h"
#include "rel/reducer.h"
#include "rel/solver.h"
#include "rel/universal.h"
#include "schema/generators.h"
#include "util/rng.h"

namespace gyo {
namespace {

std::vector<Relation> MakeUR(const DatabaseSchema& d, int rows, int domain,
                             uint64_t seed) {
  Rng rng(seed);
  Relation universal = RandomUniversal(d.Universe(), rows, domain, rng);
  return ProjectDatabase(universal, d);
}

// Bit-level equality: same rows in the same physical order with the same
// canonical flag — the deterministic-mode contract, stronger than
// EqualsAsSet.
void ExpectBitIdentical(const std::vector<Relation>& a,
                        const std::vector<Relation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_TRUE(a[i].Schema() == b[i].Schema()) << "state " << i;
    EXPECT_EQ(a[i].NumRows(), b[i].NumRows()) << "state " << i;
    EXPECT_EQ(a[i].IsCanonical(), b[i].IsCanonical()) << "state " << i;
    EXPECT_TRUE(a[i].IdenticalTo(b[i])) << "state " << i;
  }
}

// An ExecContext bound to a fresh pool of exactly `threads` workers.
// The pool must outlive every Execute call made with the context.
struct PooledCtx {
  explicit PooledCtx(int threads)
      : pool(MakeOptions(threads)) {
    ctx.threads = threads;
    ctx.pool = &pool;
  }
  static exec::ExecutorPool::Options MakeOptions(int threads) {
    exec::ExecutorPool::Options options;
    options.threads = threads;
    return options;
  }
  exec::ExecutorPool pool;
  exec::ExecContext ctx;
};

// Every program strategy the solver offers for (d, x); skips the tree-only
// ones on cyclic schemas.
std::vector<Program> AllStrategyPrograms(const DatabaseSchema& d,
                                         const AttrSet& x) {
  std::vector<Program> programs;
  programs.push_back(FullJoinProgram(d, x));
  programs.push_back(CCPrunedProgram(d, x));
  for (bool full_reduce : {false, true}) {
    for (bool early_project : {false, true}) {
      YannakakisOptions options;
      options.full_reduce = full_reduce;
      options.early_project = early_project;
      if (auto p = YannakakisProgram(d, x, options)) programs.push_back(*p);
    }
  }
  // Tree projection through the schema's own relations as bags (valid when
  // d is a tree schema and x fits in one relation).
  if (auto p = TreeProjectionProgram(d, x, d)) programs.push_back(*p);
  return programs;
}

TEST(PhysicalPlanTest, DataflowDependencies) {
  Program p(3);
  int j = p.AddJoin(0, 1);            // statement 0: R3
  int pr = p.AddProject(j, AttrSet{0});  // statement 1: R4 reads R3
  p.AddSemijoin(2, pr);               // statement 2: R5 reads R2 (base), R4
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(p);
  ASSERT_EQ(plan.Dependencies().size(), 3u);
  EXPECT_TRUE(plan.Dependencies()[0].empty());
  EXPECT_EQ(plan.Dependencies()[1], std::vector<int>({0}));
  EXPECT_EQ(plan.Dependencies()[2], std::vector<int>({1}));
  EXPECT_EQ(plan.CriticalPathLength(), 3);
  EXPECT_EQ(plan.NumSourceStatements(), 1);
}

TEST(PhysicalPlanTest, FullReducerPlanHasStatementParallelism) {
  // A star's upward semijoin pass is n independent leaf->center reductions
  // chained on the center, but the downward pass fans out: the plan must be
  // strictly shallower than the statement count... the center chain keeps
  // the upward pass serial, while all downward semijoins depend only on the
  // final center, so the critical path is (leaves) + 1 + ... < 2*leaves for
  // leaves > 1.
  DatabaseSchema d = StarSchema(6);
  auto p = YannakakisProgram(d, AttrSet{0, 1});
  ASSERT_TRUE(p.has_value());
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(*p);
  EXPECT_LT(plan.CriticalPathLength(), p->NumStatements());
}

TEST(PhysicalPlanTest, IndependentSubplansAreParallelSources) {
  // Two joins over disjoint base relations fan in to a third: the dataflow
  // analysis must leave both initially ready and halve the critical path.
  Program p(4);
  int a = p.AddJoin(0, 1);
  int b = p.AddJoin(2, 3);
  p.AddJoin(a, b);
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(p);
  EXPECT_EQ(plan.NumSourceStatements(), 2);
  EXPECT_EQ(plan.CriticalPathLength(), 2);
  EXPECT_EQ(plan.Dependencies()[2], std::vector<int>({0, 1}));
}

TEST(ExecTest, MatchesSerialOnAllStrategiesAndThreadCounts) {
  Rng rng(42);
  for (int trial = 0; trial < 4; ++trial) {
    // Key-like domains (domain ≫ rows) keep the FullJoin strategy's
    // intermediate growth factor near 1 — dense domains make an 8-relation
    // full join explode combinatorially. Trial 0 is a deliberately small
    // dense case (4 relations) so heavy per-join match fan-out is still
    // covered.
    const int num_relations = trial == 0 ? 4 : 6 + trial;
    const int domain = trial == 0 ? 8 : 16 * 60;
    RandomTreeResult t = RandomTreeSchema(num_relations, 3, rng);
    const DatabaseSchema& d = t.schema;
    // Target inside one relation so every strategy (incl. tree projection
    // over d's own bags) applies.
    AttrSet x = d[static_cast<int>(rng.Below(
        static_cast<uint64_t>(d.NumRelations())))];
    std::vector<Relation> states = MakeUR(d, 60, domain, 1000 + trial);
    for (const Program& p : AllStrategyPrograms(d, x)) {
      Program::Stats serial_stats;
      std::vector<Relation> serial = p.ExecuteWithStats(states, &serial_stats);
      for (int threads : {2, 4, 8}) {
        PooledCtx pooled(threads);
        pooled.ctx.morsel_rows = 16;  // force morsel splitting on small data
        Program::Stats par_stats;
        std::vector<Relation> parallel =
            exec::Execute(p, states, pooled.ctx, &par_stats);
        ExpectBitIdentical(serial, parallel);
        EXPECT_EQ(serial_stats.max_intermediate_rows,
                  par_stats.max_intermediate_rows);
        EXPECT_EQ(serial_stats.total_rows_produced,
                  par_stats.total_rows_produced);
        EXPECT_EQ(serial_stats.result_rows, par_stats.result_rows);
      }
    }
  }
}

TEST(ExecTest, NonDeterministicModeMatchesAsSets) {
  // A path query with key-like data: every strategy applies except tree
  // projection (the endpoints target spans two relations), and the full
  // join stays near-linear while still splitting into many 8-row morsels.
  DatabaseSchema d = PathSchema(8);
  AttrSet x{0, 7};
  std::vector<Relation> states = MakeUR(d, 200, 16 * 200, 99);
  for (const Program& p : AllStrategyPrograms(d, x)) {
    std::vector<Relation> serial = p.Execute(states);
    PooledCtx pooled(4);
    pooled.ctx.morsel_rows = 8;
    pooled.ctx.deterministic = false;
    std::vector<Relation> parallel = exec::Execute(p, states, pooled.ctx);
    ASSERT_EQ(serial.size(), parallel.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(serial[i].EqualsAsSet(parallel[i])) << "state " << i;
    }
  }
}

TEST(ExecTest, RunReturnsFinalRelation) {
  DatabaseSchema d = PathSchema(5);
  AttrSet x{0, 4};
  Program p = *YannakakisProgram(d, x);
  std::vector<Relation> states = MakeUR(d, 50, 4, 3);
  PooledCtx pooled(3);
  Relation via_exec = exec::Run(p, states, pooled.ctx);
  Relation reference = EvaluateJoinQuery(d, x, states);
  EXPECT_TRUE(via_exec.EqualsAsSet(reference));
}

// --- Build-side hash partitioning (satellite): PartitionBits must clamp
// sanely at both ends — it was previously only exercised through the
// kernels. ---

TEST(PartitionBitsTest, ClampsThreadCountsSanely) {
  // threads <= 1 (including misconfigured 0 / negative) = one partition.
  EXPECT_EQ(PartitionBits(-4), 0);
  EXPECT_EQ(PartitionBits(0), 0);
  EXPECT_EQ(PartitionBits(1), 0);
  // Smallest power of two covering the pool...
  EXPECT_EQ(PartitionBits(2), 1);
  EXPECT_EQ(PartitionBits(3), 2);
  EXPECT_EQ(PartitionBits(4), 2);
  EXPECT_EQ(PartitionBits(5), 3);
  EXPECT_EQ(PartitionBits(64), 6);
  // ...until the cap: huge pools stop at 2^kMaxPartitionBits partitions.
  EXPECT_EQ(PartitionBits(65), kMaxPartitionBits);
  EXPECT_EQ(PartitionBits(1 << 20), kMaxPartitionBits);
  EXPECT_EQ(PartitionBits(std::numeric_limits<int>::max()),
            kMaxPartitionBits);
}

TEST(PartitionBitsTest, PartitionOfCoversRange) {
  // bits == 0 maps everything to partition 0; otherwise the top bits select
  // a partition in [0, 2^bits) and the extremes land on the extremes.
  EXPECT_EQ(PartitionOf(~0ull, 0), 0u);
  for (int bits = 1; bits <= kMaxPartitionBits; ++bits) {
    EXPECT_EQ(PartitionOf(0ull, bits), 0u);
    EXPECT_EQ(PartitionOf(~0ull, bits), (size_t{1} << bits) - 1);
    Rng rng(7);
    for (int trial = 0; trial < 100; ++trial) {
      EXPECT_LT(PartitionOf(rng.Next(), bits), size_t{1} << bits);
    }
  }
}

TEST(PartitionBitsTest, ForBuildAdaptsToCardinality) {
  // The adaptive partition count: never below the pool-width floor, grows
  // with build cardinality until each partition's share is at most
  // kPartitionTargetBuildRows, and never past kMaxPartitionBits.
  for (int threads : {1, 2, 4, 8}) {
    // Small builds: the pool-width floor alone.
    EXPECT_EQ(PartitionBitsForBuild(threads, 0), PartitionBits(threads));
    EXPECT_EQ(PartitionBitsForBuild(threads, kPartitionTargetBuildRows),
              PartitionBits(threads));
  }
  // Pinned values (changing the policy must be a conscious act: the bench
  // baselines' bloom counters depend on the partition count).
  EXPECT_EQ(PartitionBitsForBuild(8, 1000), 3);
  EXPECT_EQ(PartitionBitsForBuild(2, 100000), 3);
  EXPECT_EQ(PartitionBitsForBuild(2, int64_t{1} << 20), 6);
  // The cap binds regardless of cardinality or pool width.
  EXPECT_EQ(PartitionBitsForBuild(1, int64_t{1} << 40), kMaxPartitionBits);
  EXPECT_EQ(PartitionBitsForBuild(1 << 20, 1), kMaxPartitionBits);
  // Every partition's expected share meets the target (below the cap).
  for (int64_t rows : {int64_t{1} << 15, int64_t{1} << 17}) {
    const int bits = PartitionBitsForBuild(1, rows);
    ASSERT_LT(bits, kMaxPartitionBits);
    EXPECT_LE(rows >> bits, kPartitionTargetBuildRows);
  }
}

// --- State retirement (tentpole): compile-time reader counts plus
// run-time last-reader frees. ---

TEST(ExecReaderCountsTest, ReaderCountsFollowDataflow) {
  Program p(2);
  int j = p.AddJoin(0, 1);             // reads R0, R1
  int pr = p.AddProject(j, AttrSet{0});  // reads R2
  p.AddSemijoin(pr, 0);                // reads R3 and R0 again
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(p);
  // Slots: R0, R1 base; R2 join, R3 project, R4 semijoin (sink).
  EXPECT_EQ(plan.ReaderCounts(),
            std::vector<int>({2, 1, 1, 1, 0}));
}

TEST(ExecReaderCountsTest, SelfInputCountsOnce) {
  Program p(1);
  p.AddSemijoin(0, 0);
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(p);
  EXPECT_EQ(plan.ReaderCounts(), std::vector<int>({1, 0}));
}

class ExecRetireTest : public ::testing::Test {
 protected:
  void SetUp() override {
    d_ = PathSchema(8);
    x_ = AttrSet{0, 7};
    states_ = MakeUR(d_, 80, 16 * 80, 7);
    program_ = *YannakakisProgram(d_, x_);
  }

  DatabaseSchema d_;
  AttrSet x_;
  std::vector<Relation> states_;
  Program program_{0};
};

TEST_F(ExecRetireTest, FreesConsumedStatesKeepsSinksAndResult) {
  std::vector<Relation> serial = program_.Execute(states_);
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(program_);
  for (int threads : {1, 2, 4}) {
    std::unique_ptr<PooledCtx> pooled;
    exec::ExecContext ctx;
    if (threads != 1) {
      pooled = std::make_unique<PooledCtx>(threads);
      ctx = pooled->ctx;
      ctx.morsel_rows = 16;
    }
    ctx.retire_consumed = true;
    exec::QueryStats query_stats;
    ctx.query_stats = &query_stats;
    std::vector<Relation> out = plan.Execute(states_, ctx);
    ASSERT_EQ(out.size(), serial.size());
    int64_t freed = 0;
    for (size_t i = 0; i < out.size(); ++i) {
      if (plan.ReaderCounts()[i] == 0) {
        // Sinks — including the program result — survive bit-identically.
        EXPECT_TRUE(out[i].IdenticalTo(serial[i])) << "state " << i;
      } else {
        // Every consumed state was freed once its last reader finished.
        EXPECT_EQ(out[i].NumRows(), 0) << "state " << i;
        EXPECT_TRUE(out[i].Schema() == serial[i].Schema()) << "state " << i;
        ++freed;
      }
    }
    EXPECT_GT(freed, 0);
    EXPECT_EQ(query_stats.retired_states, freed) << "threads " << threads;
    EXPECT_GT(query_stats.peak_state_bytes, 0);
  }
}

TEST_F(ExecRetireTest, RetainListExemptsStates) {
  std::vector<Relation> serial = program_.Execute(states_);
  // Retain one consumed state (the first base relation, which Yannakakis
  // reads) plus a consumed statement result.
  exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(program_);
  int consumed_stmt = -1;
  for (size_t i = static_cast<size_t>(program_.num_base());
       i < plan.ReaderCounts().size(); ++i) {
    if (plan.ReaderCounts()[i] > 0) consumed_stmt = static_cast<int>(i);
  }
  ASSERT_GE(consumed_stmt, 0);
  std::vector<int> retain = {0, consumed_stmt};
  exec::ExecContext ctx;
  ctx.retire_consumed = true;
  ctx.retain_states = &retain;
  std::vector<Relation> out = exec::Execute(program_, states_, ctx);
  EXPECT_TRUE(out[0].IdenticalTo(serial[0]));
  EXPECT_TRUE(out[static_cast<size_t>(consumed_stmt)].IdenticalTo(
      serial[static_cast<size_t>(consumed_stmt)]));
}

TEST_F(ExecRetireTest, RetirementShrinksPeakStateBytes) {
  // The memory claim behind the full reducer's retirement: the same program
  // peaks strictly lower with retirement than without.
  auto peak_of = [&](bool retire) {
    exec::ExecContext ctx;
    ctx.retire_consumed = retire;
    exec::QueryStats query_stats;
    ctx.query_stats = &query_stats;
    exec::Execute(program_, states_, ctx);
    return query_stats.peak_state_bytes;
  };
  const int64_t without = peak_of(false);
  const int64_t with = peak_of(true);
  EXPECT_GT(without, 0);
  EXPECT_LT(with, without);
}

TEST(ExecReducerTest, FullReducerRetiresIntermediates) {
  Rng rng(23);
  RandomTreeResult t = RandomTreeSchema(10, 3, rng);
  Rng state_rng(24);
  std::vector<Relation> states = RandomStates(t.schema, 200, 6, state_rng);
  exec::ExecContext ctx;
  exec::QueryStats query_stats;
  ctx.query_stats = &query_stats;
  auto reduced = ApplyFullReducer(t.schema, states, ctx);
  ASSERT_TRUE(reduced.has_value());
  // 2(n−1) semijoins over n base states: every state is consumed except the
  // n final ones (retained or sinks), so base + intermediates retire.
  const int n = t.schema.NumRelations();
  EXPECT_GT(query_stats.retired_states, 0);
  EXPECT_LE(query_stats.retired_states, n + 2 * (n - 1));
  EXPECT_GT(query_stats.peak_state_bytes, 0);
}

// --- Parallel operator kernels, driven directly. ---

class ParallelOpsTest : public ::testing::Test {
 protected:
  // Two relations sharing attribute 1, large enough to split into many
  // morsels at morsel_rows = 32.
  void SetUp() override {
    Rng rng(11);
    r_ = std::make_unique<Relation>(AttrSet{0, 1});
    s_ = std::make_unique<Relation>(AttrSet{1, 2});
    for (int i = 0; i < 700; ++i) {
      r_->AddRow({static_cast<Value>(rng.Below(50)),
                  static_cast<Value>(rng.Below(40))});
      s_->AddRow({static_cast<Value>(rng.Below(40)),
                  static_cast<Value>(rng.Below(50))});
    }
    r_->Canonicalize();
    s_->Canonicalize();
  }

  OpExecOpts ParallelOpts(exec::TaskScheduler* pool) {
    OpExecOpts opts;
    opts.scheduler = pool;
    opts.morsel_rows = 32;
    return opts;
  }

  std::unique_ptr<Relation> r_;
  std::unique_ptr<Relation> s_;
};

TEST_F(ParallelOpsTest, JoinMatchesSerialBitForBit) {
  Relation serial = NaturalJoin(*r_, *s_);
  for (int threads : {2, 4, 8}) {
    exec::TaskScheduler pool(threads);
    Relation parallel = NaturalJoin(*r_, *s_, ParallelOpts(&pool));
    EXPECT_EQ(serial.NumRows(), parallel.NumRows());
    EXPECT_TRUE(serial.IdenticalTo(parallel)) << "threads=" << threads;
  }
}

TEST_F(ParallelOpsTest, SemijoinMatchesSerialAndStaysCanonical) {
  Relation serial = Semijoin(*r_, *s_);
  EXPECT_TRUE(serial.IsCanonical());  // canonical input propagates
  for (int threads : {2, 4, 8}) {
    exec::TaskScheduler pool(threads);
    Relation parallel = Semijoin(*r_, *s_, ParallelOpts(&pool));
    EXPECT_TRUE(parallel.IsCanonical());
    EXPECT_TRUE(serial.IdenticalTo(parallel)) << "threads=" << threads;
  }
}

TEST_F(ParallelOpsTest, ProjectMatchesSerialBitForBit) {
  Relation serial = Project(*r_, AttrSet{1});
  for (int threads : {2, 4, 8}) {
    exec::TaskScheduler pool(threads);
    Relation parallel = Project(*r_, AttrSet{1}, ParallelOpts(&pool));
    EXPECT_EQ(serial.NumRows(), parallel.NumRows());
    EXPECT_TRUE(serial.IdenticalTo(parallel)) << "threads=" << threads;
  }
}

TEST_F(ParallelOpsTest, NonDeterministicResultsEqualAsSets) {
  exec::TaskScheduler pool(4);
  OpExecOpts opts = ParallelOpts(&pool);
  opts.deterministic = false;
  Relation join = NaturalJoin(*r_, *s_, opts);
  EXPECT_TRUE(join.EqualsAsSet(NaturalJoin(*r_, *s_)));
  Relation semi = Semijoin(*r_, *s_, opts);
  EXPECT_TRUE(semi.EqualsAsSet(Semijoin(*r_, *s_)));
  Relation proj = Project(*r_, AttrSet{1}, opts);
  EXPECT_TRUE(proj.EqualsAsSet(Project(*r_, AttrSet{1})));
}

TEST_F(ParallelOpsTest, DisjointSchemasCartesianProduct) {
  Relation a(AttrSet{0});
  Relation b(AttrSet{1});
  for (Value v = 0; v < 90; ++v) a.AddRow({v});
  for (Value v = 0; v < 7; ++v) b.AddRow({v});
  a.Canonicalize();
  b.Canonicalize();
  Relation serial = NaturalJoin(a, b);
  exec::TaskScheduler pool(4);
  OpExecOpts opts = ParallelOpts(&pool);
  opts.morsel_rows = 16;
  Relation parallel = NaturalJoin(a, b, opts);
  EXPECT_EQ(parallel.NumRows(), 90 * 7);
  EXPECT_TRUE(serial.IdenticalTo(parallel));
}

TEST_F(ParallelOpsTest, EmptyInputsStayEmpty) {
  Relation empty(AttrSet{1, 2});
  exec::TaskScheduler pool(4);
  OpExecOpts opts = ParallelOpts(&pool);
  EXPECT_EQ(NaturalJoin(*r_, empty, opts).NumRows(), 0);
  EXPECT_EQ(Semijoin(*r_, empty, opts).NumRows(), 0);
}

// --- Parallel full reducer. ---

TEST(ExecReducerTest, ParallelFullReducerMatchesSerial) {
  Rng rng(21);
  for (int trial = 0; trial < 3; ++trial) {
    RandomTreeResult t = RandomTreeSchema(8, 3, rng);
    Rng state_rng(500 + trial);
    std::vector<Relation> states = RandomStates(t.schema, 120, 4, state_rng);
    auto serial = ApplyFullReducer(t.schema, states);
    ASSERT_TRUE(serial.has_value());
    for (int threads : {2, 4, 8}) {
      PooledCtx pooled(threads);
      pooled.ctx.morsel_rows = 16;
      auto parallel = ApplyFullReducer(t.schema, states, pooled.ctx);
      ASSERT_TRUE(parallel.has_value());
      ASSERT_EQ(serial->size(), parallel->size());
      for (size_t i = 0; i < serial->size(); ++i) {
        EXPECT_TRUE((*serial)[i].IdenticalTo((*parallel)[i]))
            << "state " << i << " threads " << threads;
      }
    }
  }
}

TEST(ExecReducerTest, ParallelReducerRejectsCyclicSchemas) {
  DatabaseSchema d = Aring(5);
  Rng rng(3);
  std::vector<Relation> states = RandomStates(d, 20, 3, rng);
  PooledCtx pooled(4);
  EXPECT_FALSE(ApplyFullReducer(d, states, pooled.ctx).has_value());
}

// --- Probe morsel clamping: a probe task must never span a partition
// boundary, so the chunk step is recomputed per partition. ---

TEST(ClampMorselToPartitionTest, FormulaPins) {
  // 100000 rows at a 16384-row target split into ceil(100000/16384) = 7
  // chunks of ceil(100000/7) = 14286 rows — equal-ish chunks instead of six
  // full morsels plus a 1696-row tail.
  EXPECT_EQ(ClampMorselToPartition(16384, 100000), 14286);
  // A partition that fits in one morsel is one chunk.
  EXPECT_EQ(ClampMorselToPartition(16384, 1000), 1000);
  EXPECT_EQ(ClampMorselToPartition(16, 16), 16);
  // Exact multiples divide evenly.
  EXPECT_EQ(ClampMorselToPartition(16, 64), 16);
  // part_rows = k * morsel_rows + 1 rebalances rather than leaving a
  // 1-row tail chunk.
  EXPECT_EQ(ClampMorselToPartition(16, 65), 13);
  // Degenerate-input guards.
  EXPECT_EQ(ClampMorselToPartition(16, 0), 16);
  EXPECT_EQ(ClampMorselToPartition(0, 100), 1);
  EXPECT_EQ(ClampMorselToPartition(0, 0), 1);
}

TEST(ClampMorselToPartitionTest, StepAlwaysInRangeAndCoversPartition) {
  for (int64_t morsel : {int64_t{1}, int64_t{7}, int64_t{16}, int64_t{100},
                         int64_t{16384}}) {
    for (int64_t part : {int64_t{1}, int64_t{2}, int64_t{15}, int64_t{16},
                         int64_t{17}, int64_t{100}, int64_t{999},
                         int64_t{4096}, int64_t{100000}}) {
      const int64_t step = ClampMorselToPartition(morsel, part);
      ASSERT_GE(step, 1) << morsel << " " << part;
      ASSERT_LE(step, morsel) << morsel << " " << part;
      // Stepping by `step` tiles the partition in the same number of chunks
      // the naive morsel split would use — never more dispatch overhead.
      const int64_t naive = (part + morsel - 1) / morsel;
      ASSERT_EQ((part + step - 1) / step, naive) << morsel << " " << part;
    }
  }
}

// --- Parked-worker property tests: the pool's worker 0 parks for its first
// 30 ms, so the other workers and the caller draining the graph must run
// every statement and morsel while one pool thread is missing. The
// parallel-vs-serial contracts must hold with that uneven dispatch. ---

// A PooledCtx variant whose worker 0 starts parked. It also collects
// QueryStats, so the SIP tests can read the pruning tally.
struct StealStormCtx {
  explicit StealStormCtx(int threads) : pool(MakeOptions(threads)) {
    ctx.threads = threads;
    ctx.pool = &pool;
    ctx.morsel_rows = 16;  // force morsel splitting on small states
    ctx.query_stats = &query_stats;
  }
  static exec::ExecutorPool::Options MakeOptions(int threads) {
    exec::ExecutorPool::Options options;
    options.threads = threads;
    options.worker0_start_delay_ms = 30;
    return options;
  }
  exec::ExecutorPool pool;
  exec::ExecContext ctx;
  exec::QueryStats query_stats;
};

TEST(StealStormTest, TreeSchemaMatchesSerialUnderForcedStealing) {
  DatabaseSchema d = PathSchema(6);
  AttrSet x{0, 5};
  std::vector<Relation> states = MakeUR(d, 200, 16 * 60, 7042);
  for (const Program& p : AllStrategyPrograms(d, x)) {
    Program::Stats serial_stats;
    std::vector<Relation> serial = p.ExecuteWithStats(states, &serial_stats);
    // EqualsAsSet canonicalizes both sides in place, so the set comparisons
    // run against a sacrificial copy — `serial` must stay byte-pristine for
    // the bit-identity checks.
    std::vector<Relation> serial_sets = serial;
    for (int threads : {2, 4, 8}) {
      for (bool deterministic : {true, false}) {
        StealStormCtx storm(threads);
        storm.ctx.deterministic = deterministic;
        Program::Stats par_stats;
        std::vector<Relation> parallel =
            exec::Execute(p, states, storm.ctx, &par_stats);
        if (deterministic) {
          ExpectBitIdentical(serial, parallel);
          EXPECT_EQ(serial_stats.max_intermediate_rows,
                    par_stats.max_intermediate_rows);
          EXPECT_EQ(serial_stats.total_rows_produced,
                    par_stats.total_rows_produced);
          EXPECT_EQ(serial_stats.result_rows, par_stats.result_rows);
        } else {
          ASSERT_EQ(serial_sets.size(), parallel.size());
          for (size_t i = 0; i < serial_sets.size(); ++i) {
            EXPECT_TRUE(serial_sets[i].EqualsAsSet(parallel[i]))
                << "state " << i << " threads " << threads;
          }
        }
      }
    }
  }
}

TEST(StealStormTest, CyclicFixpointMatchesSerialUnderForcedStealing) {
  DatabaseSchema d = Aring(5);
  Rng rng(911);
  std::vector<Relation> states = RandomStates(d, 200, 8, rng);
  int serial_steps = -1;
  std::vector<Relation> serial = SemijoinFixpoint(d, states, &serial_steps);
  // Sacrificial copy for the set comparisons (EqualsAsSet canonicalizes in
  // place; `serial` must stay byte-pristine for IdenticalTo).
  std::vector<Relation> serial_sets = serial;
  for (int threads : {2, 4, 8}) {
    for (bool deterministic : {true, false}) {
      StealStormCtx storm(threads);
      storm.ctx.deterministic = deterministic;
      int steps = -1;
      std::vector<Relation> parallel =
          SemijoinFixpoint(d, states, storm.ctx, &steps);
      // Effective-step counts depend only on row counts, which are
      // mode-independent — equal to serial in both modes.
      EXPECT_EQ(steps, serial_steps) << "threads " << threads;
      ASSERT_EQ(serial.size(), parallel.size());
      for (size_t i = 0; i < serial.size(); ++i) {
        if (deterministic) {
          EXPECT_EQ(serial[i].IsCanonical(), parallel[i].IsCanonical())
              << "relation " << i << " threads " << threads;
          EXPECT_TRUE(serial[i].IdenticalTo(parallel[i]))
              << "relation " << i << " threads " << threads;
        } else {
          EXPECT_TRUE(serial_sets[i].EqualsAsSet(parallel[i]))
              << "relation " << i << " threads " << threads;
        }
      }
    }
  }
}

// --- Sideways information passing: a downstream chain statement's
// build-side Bloom filter pre-prunes upstream probes. No false negatives,
// so results must be bit-identical with SIP on or off, serial or parallel,
// at every thread count. ---

// A chain where SIP provably fires: s0 = R0 ⋉ R1, s1 = s0 ⋉ R2, key {a}
// throughout. R2's key domain is tiny, so the filter over R2 rejects most
// R0 rows already at s0.
struct SipChain {
  SipChain() : program(3) {
    program.AddSemijoin(0, 1);      // slot 3
    program.AddSemijoin(3, 2);      // slot 4
    Relation r0(AttrSet{0, 1});
    Relation r1(AttrSet{0});
    Relation r2(AttrSet{0});
    Rng rng(4242);
    for (int i = 0; i < 300; ++i) {
      r0.AddRow({static_cast<Value>(rng.Below(50)),
                 static_cast<Value>(rng.Below(1000))});
    }
    for (Value v = 0; v < 50; ++v) r1.AddRow({v});
    for (Value v = 0; v < 5; ++v) r2.AddRow({v});
    r0.Canonicalize();
    r1.Canonicalize();
    r2.Canonicalize();
    states = {std::move(r0), std::move(r1), std::move(r2)};
  }
  Program program;
  std::vector<Relation> states;
};

TEST(SipTest, ChainPrunesSerialAndKeepsFinalStateBitIdentical) {
  SipChain chain;
  exec::ExecContext on;  // serial, enable_sip defaults to true
  exec::QueryStats on_stats;
  on.query_stats = &on_stats;
  std::vector<Relation> with_sip =
      exec::Execute(chain.program, chain.states, on);

  exec::ExecContext off;
  off.enable_sip = false;
  exec::QueryStats off_stats;
  off.query_stats = &off_stats;
  std::vector<Relation> without_sip =
      exec::Execute(chain.program, chain.states, off);

  // ~45 of R0's 50 key values are absent from R2; modulo Bloom false
  // positives almost every such probe row is SIP-pruned at s0.
  EXPECT_GT(on_stats.sip_rows_pruned, 0);
  EXPECT_EQ(off_stats.sip_rows_pruned, 0);
  // The SIP contract: base slots and the chain's FINAL state are untouched;
  // the single-reader intermediate (slot 3) legitimately shrinks — its
  // pruned rows are exactly work the chain no longer redoes at s1.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(with_sip[i].IdenticalTo(without_sip[i])) << "base " << i;
  }
  EXPECT_TRUE(with_sip[4].IdenticalTo(without_sip[4]));
  EXPECT_LT(with_sip[3].NumRows(), without_sip[3].NumRows());
}

TEST(SipTest, ChainParallelMatchesSerialBothModes) {
  SipChain chain;
  std::vector<Relation> serial =
      exec::Execute(chain.program, chain.states, exec::ExecContext());
  std::vector<Relation> serial_sets = serial;  // sacrificial for EqualsAsSet
  int64_t total_pruned = 0;
  for (int threads : {2, 4, 8}) {
    for (bool deterministic : {true, false}) {
      StealStormCtx storm(threads);
      storm.ctx.deterministic = deterministic;
      std::vector<Relation> parallel =
          exec::Execute(chain.program, chain.states, storm.ctx);
      if (deterministic) {
        ExpectBitIdentical(serial, parallel);
      } else {
        ASSERT_EQ(serial_sets.size(), parallel.size());
        for (size_t i = 0; i < serial_sets.size(); ++i) {
          EXPECT_TRUE(serial_sets[i].EqualsAsSet(parallel[i]))
              << "state " << i << " threads " << threads;
        }
      }
      total_pruned += storm.query_stats.sip_rows_pruned;
    }
  }
  EXPECT_GT(total_pruned, 0);
}

TEST(SipTest, AllStrategiesKeepSinksUnchangedBySip) {
  // The property the registry must uphold on every plan shape the solver
  // emits (full-reducer chains included): SIP toggling never changes any
  // sink state — the caller-visible results. Consumed single-reader chain
  // intermediates MAY shrink (pruned rows are exactly the rows their
  // downstream eliminator drops), which is the saved work.
  DatabaseSchema d = PathSchema(6);
  AttrSet x{0, 5};
  std::vector<Relation> states = MakeUR(d, 150, 10 * 60, 5150);
  for (const Program& p : AllStrategyPrograms(d, x)) {
    exec::PhysicalPlan plan = exec::PhysicalPlan::Compile(p);
    exec::ExecContext off;
    off.enable_sip = false;
    std::vector<Relation> without_sip = exec::Execute(p, states, off);
    std::vector<Relation> with_sip =
        exec::Execute(p, states, exec::ExecContext());
    ASSERT_EQ(without_sip.size(), with_sip.size());
    for (size_t i = 0; i < with_sip.size(); ++i) {
      if (plan.ReaderCounts()[i] != 0) continue;
      EXPECT_TRUE(with_sip[i].IdenticalTo(without_sip[i])) << "sink " << i;
    }
  }
}

// --- Deterministic NaturalJoin probe scatter: the radix-partitioned
// probe with k-way morsel merge must restore the serial global output
// order with worker 0 parked, on tree and cyclic schemas alike. ---

TEST(JoinScatterStormTest, JoinHeavyProgramsMatchSerialUnderStealing) {
  // FullJoinProgram is all NaturalJoins — the kernel under test — and
  // Aring(4) adds the cyclic case no qual-tree strategy covers.
  struct Case {
    DatabaseSchema d;
    AttrSet x;
  };
  std::vector<Case> cases;
  cases.push_back({PathSchema(5), AttrSet{0, 4}});
  cases.push_back({Aring(4), AttrSet{0, 2}});
  for (size_t ci = 0; ci < cases.size(); ++ci) {
    std::vector<Relation> states =
        MakeUR(cases[ci].d, 220, 12 * 60, 7100 + static_cast<uint64_t>(ci));
    Program p = FullJoinProgram(cases[ci].d, cases[ci].x);
    std::vector<Relation> serial = p.Execute(states);
    std::vector<Relation> serial_sets = serial;
    for (int threads : {2, 4, 8}) {
      for (bool deterministic : {true, false}) {
        StealStormCtx storm(threads);
        storm.ctx.deterministic = deterministic;
        std::vector<Relation> parallel =
            exec::Execute(p, states, storm.ctx);
        if (deterministic) {
          ExpectBitIdentical(serial, parallel);
        } else {
          ASSERT_EQ(serial_sets.size(), parallel.size());
          for (size_t i = 0; i < serial_sets.size(); ++i) {
            EXPECT_TRUE(serial_sets[i].EqualsAsSet(parallel[i]))
                << "case " << ci << " state " << i << " threads " << threads;
          }
        }
      }
    }
  }
}

TEST(JoinScatterStormTest, KernelBitIdenticalAcrossMorselSizes) {
  // Drive the scattered probe directly: skewed keys (heavy partitions) and
  // several morsel sizes so chunks split partitions unevenly.
  Relation r(AttrSet{0, 1});
  Relation s(AttrSet{1, 2});
  Rng rng(8181);
  for (int i = 0; i < 900; ++i) {
    // Zipf-ish skew: half the rows land on 4 hot keys.
    const Value hot = static_cast<Value>(rng.Below(2) ? rng.Below(4)
                                                      : rng.Below(60));
    r.AddRow({static_cast<Value>(rng.Below(40)), hot});
    s.AddRow({static_cast<Value>(rng.Below(60)),
              static_cast<Value>(rng.Below(40))});
  }
  r.Canonicalize();
  s.Canonicalize();
  Relation serial = NaturalJoin(r, s);
  // Sacrificial copy for the set comparisons (EqualsAsSet canonicalizes in
  // place; `serial` must stay byte-pristine for IdenticalTo).
  Relation serial_sets = serial;
  for (int threads : {2, 4, 8}) {
    for (int64_t morsel_rows : {16, 64, 257}) {
      exec::TaskScheduler pool(threads);
      OpExecOpts opts;
      opts.scheduler = &pool;
      opts.morsel_rows = morsel_rows;
      Relation parallel = NaturalJoin(r, s, opts);
      EXPECT_TRUE(serial.IdenticalTo(parallel))
          << "threads=" << threads << " morsel_rows=" << morsel_rows;
      opts.deterministic = false;
      Relation unordered = NaturalJoin(r, s, opts);
      EXPECT_TRUE(unordered.EqualsAsSet(serial_sets))
          << "threads=" << threads << " morsel_rows=" << morsel_rows;
    }
  }
}

// --- Eager validation (satellite): malformed statements must fail up front
// with an error naming the statement index. ---

using ProgramValidationDeathTest = ::testing::Test;

TEST(ProgramValidationDeathTest, ProjectingAbsentAttributeNamesStatement) {
  Program p(2);
  p.AddJoin(0, 1);              // statement 0, fine
  p.AddProject(2, AttrSet{9});  // statement 1: attribute 9 exists nowhere
  std::vector<Relation> base = {Relation(AttrSet{0, 1}),
                                Relation(AttrSet{1, 2})};
  EXPECT_DEATH(p.Execute(base), "statement 1");
  DatabaseSchema d{AttrSet{0, 1}, AttrSet{1, 2}};
  EXPECT_DEATH(p.DerivedSchema(d), "statement 1");
}

TEST(ProgramValidationDeathTest, ValidationRunsBeforeExecution) {
  // The first statement is executable, the second malformed: eager
  // validation must reject the program without running statement 0 (the
  // error names statement 1, not a mid-execution operator failure).
  Program p(1);
  p.AddProject(0, AttrSet{0});
  p.AddProject(1, AttrSet{7});
  std::vector<Relation> base = {Relation(AttrSet{0, 1})};
  EXPECT_DEATH(p.Execute(base), "statement 1: projection target");
}

TEST(ProgramValidationDeathTest, BaseArityMismatchDies) {
  Program p(2);
  p.AddJoin(0, 1);
  std::vector<Relation> base = {Relation(AttrSet{0, 1})};
  EXPECT_DEATH(p.Execute(base), "base has 1 relations, program expects 2");
}

TEST(ProgramValidationDeathTest, ValidateReturnsDerivedSchemas) {
  Program p(2);
  int j = p.AddJoin(0, 1);
  p.AddProject(j, AttrSet{0, 2});
  std::vector<AttrSet> schemas = p.ValidateAndDeriveSchemas(
      {AttrSet{0, 1}, AttrSet{1, 2}});
  ASSERT_EQ(schemas.size(), 4u);
  EXPECT_TRUE(schemas[2] == (AttrSet{0, 1, 2}));
  EXPECT_TRUE(schemas[3] == (AttrSet{0, 2}));
}

}  // namespace
}  // namespace gyo
