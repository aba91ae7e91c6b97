#ifndef GYO_REL_OPS_H_
#define GYO_REL_OPS_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "rel/relation.h"
#include "util/attr_set.h"

namespace gyo {

namespace exec {
class TaskScheduler;
}  // namespace exec

class BloomFilter;

/// Relational algebra operators (paper §2 notation).
///
/// Contract: inputs must be duplicate-free (canonical relations and operator
/// outputs both qualify; after hand-built AddRow sequences call
/// Canonicalize() first). All results are duplicate-free, so NumRows() is a
/// set cardinality — but they are NOT necessarily sorted: canonical form is
/// established lazily (EqualsAsSet() canonicalizes on demand). Semijoin is
/// the exception: it selects a subsequence of its left input, so a canonical
/// input yields a canonical output (every Semijoin form — the parallel
/// probe-side-scattered kernel compacts survivors in row order regardless of
/// the determinism mode).

/// Execution options threaded through the kernels by the exec runtime
/// (exec/physical_plan.h). Default-constructed options run the serial
/// engine. With a scheduler attached and a probe side larger than one
/// morsel, the kernels switch to their parallel form: a radix-scatter
/// partitioned build (one counting pass + prefix-sum layout + one scatter
/// pass lay every row id into its hash partition's contiguous region, then
/// the partitions build concurrently from their own rows — O(n) total work,
/// with a per-partition Bloom filter filled from the same hash pass) plus a
/// morsel-driven probe over row ranges of the input columns, each morsel
/// collecting a selection/match vector that a final per-column gather pass
/// compacts into the output arenas. Project reuses the same scatter
/// structure for a partitioned cross-morsel dedupe (see ops.cc).
struct OpExecOpts {
  /// Pool to fan morsels out on; nullptr (or a 1-thread pool) = serial.
  exec::TaskScheduler* scheduler = nullptr;
  /// Probe rows per morsel. Inputs of at most this many rows run serially.
  /// 0 (the default) auto-tunes per kernel from the probe relation's arity
  /// via AutoMorselRows below.
  int64_t morsel_rows = 0;
  /// When true, morsel outputs merge in morsel order and every result is
  /// bit-identical (row order and canonical flag included) to the serial
  /// kernel's. When false, morsels merge in completion order: the same set
  /// of rows in unspecified physical order. (Semijoin and Project are
  /// order-preserving in both modes — their compactions gather survivors in
  /// input row order — so only NaturalJoin's output order depends on this.)
  bool deterministic = true;
  /// When non-null, the kernels add every data morsel they dispatch
  /// (hash-build and probe passes) — the ExecutorPool's per-query
  /// QueryStats::morsels feed.
  std::atomic<int64_t>* morsel_counter = nullptr;
  /// When non-null, probe rows whose key hash a partition Bloom filter
  /// rejects (parallel partitioned builds only) are tallied here — the
  /// QueryStats::bloom_partition_skips feed.
  std::atomic<int64_t>* bloom_skip_counter = nullptr;
  /// When non-null, every probe row a Bloom filter prunes before any
  /// bucket-chain walk (serial single-filter and parallel per-partition
  /// rejections alike) is tallied here — the QueryStats::probe_rows_pruned
  /// feed.
  std::atomic<int64_t>* probe_prune_counter = nullptr;
  /// Sideways-information-passing filters (exec/physical_plan.cc): Bloom
  /// filters built over a LATER chain statement's build side, keyed on the
  /// same attributes (in the same sorted order) as this Semijoin's probe
  /// hash. The probe loops test every filter before their own Bloom/chain
  /// work; a rejection proves the row dies downstream anyway, so pruning it
  /// here never changes the final states (no false negatives). Consulted by
  /// Semijoin only; nullptr (the default) disables SIP.
  const std::vector<const BloomFilter*>* sip_filters = nullptr;
  /// When non-null, probe rows a SIP filter rejects are tallied here — the
  /// QueryStats::sip_rows_pruned feed (separate from probe_rows_pruned,
  /// which stays the kernel's OWN Bloom pruning).
  std::atomic<int64_t>* sip_prune_counter = nullptr;
  /// When non-null, probe rows skipped by a zone-map disjointness proof
  /// (Semijoin key ranges that cannot overlap skip the whole probe) are
  /// tallied here — the QueryStats::zone_map_skips feed.
  std::atomic<int64_t>* zone_skip_counter = nullptr;
};

/// Morsel-size auto-tuning (used when OpExecOpts/ExecContext leave
/// morsel_rows at 0): rows per morsel for a relation of `arity`, sized so
/// one morsel's values span ~kMorselTargetBytes — a quarter of a typical
/// 1 MiB per-core L2, leaving headroom for the build side and the morsel's
/// output buffer — clamped to [kMinMorselRows, kMaxMorselRows] so tiny
/// arities don't defeat dispatch amortization and huge ones still split.
constexpr int64_t kMorselTargetBytes = 256 * 1024;
constexpr int64_t kMinMorselRows = 256;
constexpr int64_t kMaxMorselRows = 1 << 16;

constexpr int64_t AutoMorselRows(int arity) {
  return std::max(kMinMorselRows,
                  std::min(kMaxMorselRows,
                           kMorselTargetBytes /
                               (static_cast<int64_t>(arity < 1 ? 1 : arity) *
                                static_cast<int64_t>(sizeof(Value)))));
}

/// Build-side hash partitioning: the parallel kernels split a hash build
/// into 2^bits partitions, where partition p owns the rows whose key hash
/// has p in its top bits (bucket chains use the low bits, so the two
/// selections stay independent). PartitionBits gives the pool-width floor:
/// clamped to [0, kMaxPartitionBits], threads <= 1 (including 0 and negative
/// values from misconfigured callers) means one partition, and huge thread
/// counts stop at 64 partitions — beyond that the per-partition task
/// bookkeeping outweighs the extra build parallelism.
constexpr int kMaxPartitionBits = 6;

constexpr int PartitionBits(int threads) {
  int bits = 0;
  while ((1 << bits) < threads && bits < kMaxPartitionBits) ++bits;
  return bits;
}

/// Adaptive partition count: the parallel builds start from the pool-width
/// floor and add bits until each partition's expected build share drops to
/// at most kPartitionTargetBuildRows rows (~128 KiB of bucket heads plus
/// entries — cache-resident), still clamped to kMaxPartitionBits. Large
/// builds on narrow pools thus get more, smaller partitions than the pool
/// width alone would pick; small builds are unaffected.
constexpr int64_t kPartitionTargetBuildRows = int64_t{1} << 14;

constexpr int PartitionBitsForBuild(int threads, int64_t build_rows) {
  int bits = PartitionBits(threads);
  while (bits < kMaxPartitionBits &&
         (build_rows >> bits) > kPartitionTargetBuildRows) {
    ++bits;
  }
  return bits;
}

constexpr size_t PartitionOf(uint64_t h, int bits) {
  return bits == 0 ? 0 : static_cast<size_t>(h >> (64 - bits));
}

/// Probe-side scatter chunking: the chunk size for splitting one partition
/// of `part_rows` probe rows into parallel tasks, given the configured
/// morsel size. Chunks never span a partition boundary (the partition is
/// split on its own), so each probe task walks exactly one cache-resident
/// partition; within the partition the rows are divided into
/// ceil(part_rows / morsel_rows) equal-ish chunks rather than
/// morsel_rows-sized chunks plus a remainder tail — the last task would
/// otherwise be arbitrarily small and dispatch overhead per partition would
/// spike at part_rows = k * morsel_rows + 1. The result is always in
/// [1, morsel_rows] for part_rows >= 1.
constexpr int64_t ClampMorselToPartition(int64_t morsel_rows,
                                         int64_t part_rows) {
  if (part_rows <= 0) return morsel_rows < 1 ? 1 : morsel_rows;
  if (morsel_rows < 1) return 1;
  const int64_t chunks = (part_rows + morsel_rows - 1) / morsel_rows;
  return (part_rows + chunks - 1) / chunks;
}

/// Bloom filter over 64-bit key hashes: a power-of-two bit array with two
/// probe positions per key (the low and high halves of the hash), sized at
/// ~kBloomBitsPerKey bits per expected key. Add() sets both probe bits, so
/// MaybeContains() has NO false negatives — a Bloom rejection can only skip
/// probe rows that would have found no match, which is why the filtered
/// kernels stay bit-identical to the unfiltered ones. Builds smaller than
/// kMinBloomBuildRows skip the filter entirely: the chain walk is already
/// cache-resident and the extra branch costs more than it saves.
constexpr int kBloomBitsPerKey = 8;
constexpr int64_t kMinBloomBuildRows = 64;

class BloomFilter {
 public:
  /// A disabled filter: MaybeContains() must not be called.
  BloomFilter() = default;

  /// An empty filter sized for `expected_keys` keys.
  explicit BloomFilter(int64_t expected_keys) {
    size_t bits = 128;
    const size_t want =
        static_cast<size_t>(expected_keys < 0 ? 0 : expected_keys) *
        static_cast<size_t>(kBloomBitsPerKey);
    while (bits < want) bits <<= 1;
    words_.assign(bits / 64, 0);
    mask_ = bits - 1;
  }

  bool enabled() const { return !words_.empty(); }

  void Add(uint64_t h) {
    SetBit(static_cast<size_t>(h) & mask_);
    SetBit(static_cast<size_t>(h >> 32) & mask_);
  }

  bool MaybeContains(uint64_t h) const {
    return GetBit(static_cast<size_t>(h) & mask_) &&
           GetBit(static_cast<size_t>(h >> 32) & mask_);
  }

 private:
  void SetBit(size_t b) { words_[b >> 6] |= uint64_t{1} << (b & 63); }
  bool GetBit(size_t b) const { return (words_[b >> 6] >> (b & 63)) & 1; }

  std::vector<uint64_t> words_;
  size_t mask_ = 0;
};

/// π_X(r): projection onto X. Requires X ⊆ r.Schema(). Output deduplicated
/// via hashing (unsorted).
Relation Project(const Relation& r, const AttrSet& x);
Relation Project(const Relation& r, const AttrSet& x, const OpExecOpts& opts);

/// r ⋈ s: natural join (hash join keyed on the common attributes' columns,
/// hashed column-at-a-time; a Cartesian product when the schemas are
/// disjoint).
Relation NaturalJoin(const Relation& r, const Relation& s);
Relation NaturalJoin(const Relation& r, const Relation& s,
                     const OpExecOpts& opts);

/// r ⋉ s: natural semijoin, π_R(r ⋈ s) computed without materializing the
/// join (membership probes + one per-column gather over a selection
/// vector). Canonical input r gives canonical output (every form: the
/// parallel kernel compacts survivors in row order in both determinism
/// modes).
Relation Semijoin(const Relation& r, const Relation& s);
Relation Semijoin(const Relation& r, const Relation& s,
                  const OpExecOpts& opts);

/// ⋈ of a non-empty list of relations, left to right.
Relation JoinAll(const std::vector<Relation>& relations);

/// Builds the SIP publish-side Bloom filter: every row of `rel` hashed over
/// key columns `cols` (column-at-a-time, the kernels' hash — callers must
/// list `cols` in increasing attribute-id order so the hash matches the
/// consumer's probe hash over the same attributes). Built unconditionally —
/// no kMinBloomBuildRows gate — because a SIP filter's payoff is decided by
/// the CONSUMER's probe size, not this build's; an empty `rel` yields a
/// filter that rejects every probe (correct: a later semijoin against an
/// empty state eliminates everything).
BloomFilter BuildSipFilter(const Relation& rel, const std::vector<int>& cols);

}  // namespace gyo

#endif  // GYO_REL_OPS_H_
