#include "rel/ops.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <vector>

#include "exec/task_scheduler.h"
#include "rel/simd.h"
#include "util/check.h"

namespace gyo {

namespace {

constexpr uint64_t kFnvSeed = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// FNV-1a alone distributes small sequential integers (the common
// test/benchmark domain) badly in power-of-two bucket arrays; the Murmur3
// finalizer sweep (simd::AvalancheSweep) spreads every input bit over the
// whole word.

// The key columns of `rel` selected by `cols`, as flat arena pointers — the
// form every kernel below hashes and compares against. Invalidated by any
// mutation of `rel`.
inline std::vector<const Value*> KeyCols(const Relation& rel,
                                         const std::vector<int>& cols) {
  std::vector<const Value*> keys;
  keys.reserve(cols.size());
  for (int c : cols) keys.push_back(rel.ColData(c));
  return keys;
}

// Column-at-a-time key hashing: writes the key hash of every row in
// [lo, hi) to out[0 .. hi-lo). One FNV-1a fold pass per key column over its
// flat arena (seed broadcast, then per-column xor-multiply sweeps, then one
// avalanche sweep), each sweep explicitly vectorized (rel/simd.h) with hash
// values bit-identical to the scalar loops — same fold order, same
// constants, per-lane xor/multiply/shift — so bucket chains, Bloom bits,
// and output orders are unchanged across the dispatch tiers.
inline void HashColumns(const std::vector<const Value*>& keys, int64_t lo,
                        int64_t hi, uint64_t* out) {
  const int64_t n = hi - lo;
  simd::FillU64(out, n, kFnvSeed);
  for (const Value* col : keys) {
    simd::XorMulU64(out, col + lo, n, kFnvPrime);
  }
  simd::AvalancheSweep(out, n);
}

// Rows per block of the scratch hash buffer the streaming probe/build loops
// run through: 32 KiB of hashes, L1-resident, so HashColumns amortizes
// without the buffer competing with the build side for cache.
constexpr int64_t kHashBlockRows = 4096;

// Invokes fn(row, hash) for every row in [lo, hi), hashing column-at-a-time
// in kHashBlockRows blocks through `scratch`.
template <typename Fn>
inline void ForEachHashed(const std::vector<const Value*>& keys, int64_t lo,
                          int64_t hi, std::vector<uint64_t>& scratch,
                          Fn&& fn) {
  scratch.resize(static_cast<size_t>(kHashBlockRows));
  for (int64_t b = lo; b < hi; b += kHashBlockRows) {
    const int64_t e = std::min(hi, b + kHashBlockRows);
    HashColumns(keys, b, e, scratch.data());
    for (int64_t i = b; i < e; ++i) {
      fn(i, scratch[static_cast<size_t>(i - b)]);
    }
  }
}

// Compares the key of row `a_row` (under columns `a_keys`) with the key of
// row `b_row` (under `b_keys`); the two key lists must be aligned on the
// same attributes.
inline bool KeysEqual(const std::vector<const Value*>& a_keys, int64_t a_row,
                      const std::vector<const Value*>& b_keys, int64_t b_row) {
  for (size_t k = 0; k < a_keys.size(); ++k) {
    if (a_keys[k][a_row] != b_keys[k][b_row]) return false;
  }
  return true;
}

// Gathers src_col[ids[t]] into dst[t] — the per-column compaction primitive
// every kernel's output pass is built from (order-preserving).
inline void GatherColumn(const Value* src_col,
                         const std::vector<int64_t>& ids, Value* dst) {
  for (size_t t = 0; t < ids.size(); ++t) dst[t] = src_col[ids[t]];
}

inline size_t NextPow2AtLeast(size_t n) {
  size_t p = 16;
  while (p < n) p <<= 1;
  return p;
}

// A chained hash index from key-column values to row indices. Keys are
// never materialized: both build and probe hash/compare directly against
// flat column arenas.
class ColumnIndex {
 public:
  // An empty index sized for `expected_rows`; register rows with Add().
  ColumnIndex(std::vector<const Value*> keys, int64_t expected_rows)
      : keys_(std::move(keys)) {
    const size_t buckets =
        NextPow2AtLeast(2 * static_cast<size_t>(expected_rows));
    mask_ = buckets - 1;
    heads_.assign(buckets, -1);
    entries_.reserve(static_cast<size_t>(expected_rows));
  }

  // Registers row `row` under its (precomputed) key hash. The partitioned
  // build path hashes every row once up front and reuses the values here.
  void Add(int64_t row, uint64_t hash) {
    size_t b = static_cast<size_t>(hash) & mask_;
    entries_.push_back(Entry{hash, row, heads_[b]});
    heads_[b] = static_cast<int64_t>(entries_.size()) - 1;
  }

  // Invokes fn(row_index) for every indexed row whose key equals the key of
  // `probe_row` under `probe_keys`.
  template <typename Fn>
  void ForEachMatchHashed(const std::vector<const Value*>& probe_keys,
                          int64_t probe_row, uint64_t h, Fn&& fn) const {
    for (int64_t e = heads_[static_cast<size_t>(h) & mask_]; e >= 0;
         e = entries_[static_cast<size_t>(e)].next) {
      const Entry& entry = entries_[static_cast<size_t>(e)];
      if (entry.hash == h &&
          KeysEqual(keys_, entry.row, probe_keys, probe_row)) {
        fn(entry.row);
      }
    }
  }

  // True iff some indexed row's key equals the probe row's key.
  bool ContainsHashed(const std::vector<const Value*>& probe_keys,
                      int64_t probe_row, uint64_t h) const {
    for (int64_t e = heads_[static_cast<size_t>(h) & mask_]; e >= 0;
         e = entries_[static_cast<size_t>(e)].next) {
      const Entry& entry = entries_[static_cast<size_t>(e)];
      if (entry.hash == h &&
          KeysEqual(keys_, entry.row, probe_keys, probe_row)) {
        return true;
      }
    }
    return false;
  }

 private:
  struct Entry {
    uint64_t hash;
    int64_t row;
    int64_t next;  // previous entry in the same bucket, -1 at chain end
  };
  std::vector<const Value*> keys_;
  std::vector<int64_t> heads_;
  std::vector<Entry> entries_;
  size_t mask_;
};

// Serial build: indexes rows [0, n) under `keys`, and when `bloom` is
// non-null and the build clears the kMinBloomBuildRows gate, fills it from
// the same hash stream (it stays disabled otherwise).
ColumnIndex BuildIndex(const std::vector<const Value*>& keys, int64_t n,
                       BloomFilter* bloom) {
  ColumnIndex index(keys, n);
  if (bloom != nullptr && n >= kMinBloomBuildRows) *bloom = BloomFilter(n);
  std::vector<uint64_t> scratch;
  ForEachHashed(keys, 0, n, scratch, [&](int64_t i, uint64_t h) {
    index.Add(i, h);
    if (bloom != nullptr && bloom->enabled()) bloom->Add(h);
  });
  return index;
}

// ---------------------------------------------------------------------------
// Parallel kernel machinery (exec subsystem). The serial kernels below stay
// the single-morsel form; these helpers add hash-partitioned builds and
// morsel-driven probes when an OpExecOpts carries a multi-thread scheduler.

// Copies `opts` with morsel_rows resolved: the caller's explicit value, or
// the L2-targeting auto-tune for `probe_arity` when left at 0. Every kernel
// resolves once up front and threads the resolved options through.
inline OpExecOpts ResolveMorselRows(const OpExecOpts& opts, int probe_arity) {
  OpExecOpts resolved = opts;
  if (resolved.morsel_rows <= 0) {
    resolved.morsel_rows = AutoMorselRows(probe_arity);
  }
  return resolved;
}

// Feeds the per-query morsel counter (QueryStats::morsels) when one is
// attached.
inline void CountMorsels(const OpExecOpts& opts, int64_t n) {
  if (opts.morsel_counter != nullptr) {
    opts.morsel_counter->fetch_add(n, std::memory_order_relaxed);
  }
}

// Feeds the Bloom prune counters: `pruned` probe rows rejected before any
// chain walk, of which `partition_skips` skipped a partitioned-build
// partition (the parallel path; serial single-filter prunes pass 0).
inline void CountPrunes(const OpExecOpts& opts, int64_t pruned,
                        int64_t partition_skips) {
  if (pruned > 0 && opts.probe_prune_counter != nullptr) {
    opts.probe_prune_counter->fetch_add(pruned, std::memory_order_relaxed);
  }
  if (partition_skips > 0 && opts.bloom_skip_counter != nullptr) {
    opts.bloom_skip_counter->fetch_add(partition_skips,
                                       std::memory_order_relaxed);
  }
}

// Feeds the SIP prune counter (QueryStats::sip_rows_pruned): probe rows a
// cross-statement SIP filter rejected before any of this kernel's own
// Bloom/chain work.
inline void CountSip(const OpExecOpts& opts, int64_t pruned) {
  if (pruned > 0 && opts.sip_prune_counter != nullptr) {
    opts.sip_prune_counter->fetch_add(pruned, std::memory_order_relaxed);
  }
}

// True iff any attached SIP filter proves key hash `h` cannot survive the
// downstream chain (Bloom filters have no false negatives, so a rejection
// is a proof). A pure function of `h` — identical decisions on every
// thread, so pruning preserves determinism.
inline bool SipReject(const std::vector<const BloomFilter*>* filters,
                      uint64_t h) {
  if (filters == nullptr) return false;
  for (const BloomFilter* f : *filters) {
    if (!f->MaybeContains(h)) return true;
  }
  return false;
}

// True when the probe side is worth splitting into morsels. `opts` must be
// resolved (morsel_rows >= 1).
inline bool RunParallel(const OpExecOpts& opts, int64_t probe_rows) {
  return opts.scheduler != nullptr && opts.scheduler->threads() > 1 &&
         probe_rows > opts.morsel_rows && opts.morsel_rows >= 1;
}

inline int64_t NumMorsels(int64_t rows, int64_t morsel_rows) {
  return (rows + morsel_rows - 1) / morsel_rows;
}

// Radix scatter of row ids [0, n) into 2^bits hash partitions, O(n) total:
//
//   1. counting pass (parallel over morsels): hash every row's key columns
//      (column-at-a-time over the flat arenas) and tally a per-morsel ×
//      per-partition histogram — disjoint writes, no locking;
//   2. prefix-sum layout (serial, morsels × parts entries): assign every
//      (morsel, partition) bucket a contiguous range of a partition-major
//      row-id array;
//   3. scatter pass (parallel over morsels): each morsel writes its row ids
//      into its own precomputed ranges — cache-friendly contiguous writes.
//
// The partition count adapts to the build side: PartitionBitsForBuild widens
// past the pool-width floor until partitions are cache-resident — or is
// forced by the caller (forced_bits >= 0): the probe-side scatter must use
// the BUILD side's partition function so probe partition p matches build
// partition p exactly. Within each partition the buckets are laid out in
// morsel order, so a partition's slice lists its rows in increasing global
// row order — the exact order the serial build inserts them in, which keeps
// bucket-chain traversal (and thus deterministic-mode output) bit-identical.
// The row hashes are computed once here and reused by the partition build,
// its Bloom filters, Project's partitioned dedupe, and Semijoin's
// partitioned probe.
struct RadixScatter {
  RadixScatter(int64_t n, const std::vector<const Value*>& keys,
               const OpExecOpts& opts, int forced_bits = -1)
      : bits(forced_bits >= 0
                 ? forced_bits
                 : PartitionBitsForBuild(opts.scheduler->threads(), n)) {
    const int64_t parts = int64_t{1} << bits;
    const int64_t morsels = NumMorsels(n, opts.morsel_rows);
    CountMorsels(opts, 2 * morsels);  // the counting and scatter passes
    hashes.resize(static_cast<size_t>(n));
    std::vector<int64_t> counts(static_cast<size_t>(morsels * parts), 0);
    opts.scheduler->ParallelFor(morsels, [&](int64_t m) {
      const int64_t lo = m * opts.morsel_rows;
      const int64_t hi = std::min<int64_t>(n, lo + opts.morsel_rows);
      HashColumns(keys, lo, hi, hashes.data() + lo);
      int64_t* mine = counts.data() + static_cast<size_t>(m * parts);
      for (int64_t i = lo; i < hi; ++i) {
        ++mine[PartitionOf(hashes[static_cast<size_t>(i)], bits)];
      }
    });
    std::vector<int64_t> cursors(static_cast<size_t>(morsels * parts));
    part_begin.resize(static_cast<size_t>(parts) + 1);
    int64_t off = 0;
    for (int64_t p = 0; p < parts; ++p) {
      part_begin[static_cast<size_t>(p)] = off;
      for (int64_t m = 0; m < morsels; ++m) {
        cursors[static_cast<size_t>(m * parts + p)] = off;
        off += counts[static_cast<size_t>(m * parts + p)];
      }
    }
    part_begin[static_cast<size_t>(parts)] = off;
    row_ids.resize(static_cast<size_t>(n));
    opts.scheduler->ParallelFor(morsels, [&](int64_t m) {
      const int64_t lo = m * opts.morsel_rows;
      const int64_t hi = std::min<int64_t>(n, lo + opts.morsel_rows);
      int64_t* mine = cursors.data() + static_cast<size_t>(m * parts);
      for (int64_t i = lo; i < hi; ++i) {
        const size_t p = PartitionOf(hashes[static_cast<size_t>(i)], bits);
        row_ids[static_cast<size_t>(mine[p]++)] = i;
      }
    });
  }

  int num_partitions() const { return 1 << bits; }

  const int bits;
  std::vector<uint64_t> hashes;    // per row id, the key-column hash
  std::vector<int64_t> row_ids;    // partition-major, row order within each
  std::vector<int64_t> part_begin; // partition p owns [begin[p], begin[p+1])
};

// A hash-partitioned ColumnIndex over all rows of a build relation: a
// RadixScatter lays every row id into its partition's contiguous slice,
// then the partition indexes are built concurrently, each consuming only
// its own rows — build work stays O(n) regardless of the partition count.
// The scatter's hash pass doubles as the Bloom feed: each partition fills
// its own filter while inserting (gated on the build clearing
// kMinBloomBuildRows), so probes can reject a partition — and skip its
// bucket-chain walk entirely — on two bit tests.
class PartitionedColumnIndex {
 public:
  PartitionedColumnIndex(const Relation& rel, const std::vector<int>& cols,
                         const OpExecOpts& opts)
      : keys_(KeyCols(rel, cols)),
        use_bloom_(rel.NumRows() >= kMinBloomBuildRows) {
    // Scatter state is local: the build finishes before the constructor
    // returns, so the ~16 bytes/row need not stay pinned through the probe.
    RadixScatter scatter(rel.NumRows(), keys_, opts);
    bits_ = scatter.bits;
    const int parts = scatter.num_partitions();
    parts_.reserve(static_cast<size_t>(parts));
    blooms_.resize(static_cast<size_t>(parts));
    for (int p = 0; p < parts; ++p) {
      const int64_t rows =
          scatter.part_begin[static_cast<size_t>(p) + 1] -
          scatter.part_begin[static_cast<size_t>(p)];
      parts_.emplace_back(keys_, rows);
      if (use_bloom_) blooms_[static_cast<size_t>(p)] = BloomFilter(rows);
    }
    opts.scheduler->ParallelFor(parts, [&](int64_t p) {
      ColumnIndex& index = parts_[static_cast<size_t>(p)];
      BloomFilter& bloom = blooms_[static_cast<size_t>(p)];
      const int64_t hi = scatter.part_begin[static_cast<size_t>(p) + 1];
      for (int64_t k = scatter.part_begin[static_cast<size_t>(p)]; k < hi;
           ++k) {
        const int64_t row = scatter.row_ids[static_cast<size_t>(k)];
        const uint64_t h = scatter.hashes[static_cast<size_t>(row)];
        index.Add(row, h);
        if (use_bloom_) bloom.Add(h);
      }
    });
  }

  // The partition index responsible for probe-key hash `h`, or nullptr when
  // that partition's Bloom filter proves no build key can match (never a
  // false nullptr — Bloom filters have no false negatives).
  const ColumnIndex* Probe(uint64_t h) const {
    const size_t p = PartitionOf(h, bits_);
    if (use_bloom_ && !blooms_[p].MaybeContains(h)) return nullptr;
    return &parts_[p];
  }

  int bits() const { return bits_; }
  int num_partitions() const { return 1 << bits_; }

  const ColumnIndex& part(int p) const {
    return parts_[static_cast<size_t>(p)];
  }

  // Partition-p half of Probe() for callers that already scattered their
  // rows by partition: false iff p's Bloom filter proves `h` cannot match.
  // Identical accept/reject decisions (same filters, same hashes) keep the
  // prune counters numerically equal to the Probe() path's.
  bool PartitionMaybeContains(int p, uint64_t h) const {
    return !use_bloom_ || blooms_[static_cast<size_t>(p)].MaybeContains(h);
  }

 private:
  std::vector<const Value*> keys_;
  bool use_bloom_;
  int bits_ = 0;
  std::vector<ColumnIndex> parts_;
  std::vector<BloomFilter> blooms_;
};

// Prefix sums of per-chunk output sizes in merge order: offsets[pos] is the
// output row offset of the chunk at merge position pos, offsets.back() the
// total. Shared by the join/semijoin compaction passes so the two merge
// paths cannot diverge.
template <typename RowsOf>
std::vector<int64_t> MergeOffsets(const std::vector<int64_t>& order,
                                  RowsOf&& rows_of) {
  std::vector<int64_t> offsets(order.size() + 1, 0);
  for (size_t pos = 0; pos < order.size(); ++pos) {
    offsets[pos + 1] = offsets[pos] + rows_of(order[pos]);
  }
  return offsets;
}

// The order in which per-morsel outputs are compacted into the result arena:
// morsel order when `deterministic` (bit-identical to the serial kernel),
// completion order otherwise (same set, unspecified row order).
class MergeOrder {
 public:
  MergeOrder(int64_t chunks, bool deterministic)
      : deterministic_(deterministic) {
    if (deterministic_) {
      order_.resize(static_cast<size_t>(chunks));
      for (int64_t c = 0; c < chunks; ++c) order_[static_cast<size_t>(c)] = c;
    } else {
      order_.reserve(static_cast<size_t>(chunks));
    }
  }

  // Called by each morsel as it finishes.
  void Record(int64_t chunk) {
    if (deterministic_) return;
    std::lock_guard<std::mutex> lock(mu_);
    order_.push_back(chunk);
  }

  const std::vector<int64_t>& order() const { return order_; }

 private:
  bool deterministic_;
  std::mutex mu_;
  std::vector<int64_t> order_;
};

}  // namespace

Relation Project(const Relation& r, const AttrSet& x) {
  return Project(r, x, OpExecOpts());
}

Relation Project(const Relation& r, const AttrSet& x,
                 const OpExecOpts& caller_opts) {
  const OpExecOpts opts = ResolveMorselRows(caller_opts, r.Arity());
  GYO_CHECK_MSG(x.IsSubsetOf(r.Schema()), "projection target not in schema");
  Relation out(x);
  std::vector<int> cols;
  cols.reserve(static_cast<size_t>(out.Arity()));
  for (AttrId a : out.Attrs()) cols.push_back(r.ColIndex(a));

  const int64_t n = r.NumRows();
  if (out.Arity() == 0) {
    // π_∅: TRUE (one empty tuple) iff r is non-empty.
    if (n > 0) out.AppendRows(1);
    out.MarkCanonical();
    return out;
  }

  const std::vector<const Value*> keys = KeyCols(r, cols);

  if (!RunParallel(opts, n)) {
    // First-occurrence selection: an incremental ColumnIndex over the input
    // keyed on the projected columns records every distinct key's first row;
    // one gather pass per column then compacts the survivors. No sort — the
    // result is duplicate-free but left non-canonical (sortedness is lazy).
    ColumnIndex seen(keys, n);
    std::vector<int64_t> survivors;
    std::vector<uint64_t> scratch;
    ForEachHashed(keys, 0, n, scratch, [&](int64_t i, uint64_t h) {
      if (seen.ContainsHashed(keys, i, h)) return;
      seen.Add(i, h);
      survivors.push_back(i);
    });
    const int64_t base = out.AppendRows(static_cast<int64_t>(survivors.size()));
    for (size_t k = 0; k < cols.size(); ++k) {
      GatherColumn(r.ColData(cols[k]), survivors,
                   out.ColData(static_cast<int>(k)) + base);
    }
    return out;
  }

  // Parallel form: a partitioned (by key hash) cross-morsel dedupe on the
  // radix-scatter structure — no sequential merge pass at all. All
  // duplicates of a key land in the same hash partition, and each
  // partition's row-id slice preserves global row order, so a
  // within-partition first occurrence IS the global first occurrence. The
  // partition tasks dedupe concurrently into a shared per-row survivor
  // bitmap (disjoint bytes — every row belongs to exactly one partition),
  // then a morsel-parallel compaction gathers the survivors per column in
  // row order: always bit-identical to the serial kernel, deterministic
  // mode or not.
  RadixScatter scatter(n, keys, opts);
  const int parts = scatter.num_partitions();
  std::vector<uint8_t> survives(static_cast<size_t>(n), 0);
  opts.scheduler->ParallelFor(parts, [&](int64_t p) {
    const int64_t lo = scatter.part_begin[static_cast<size_t>(p)];
    const int64_t hi = scatter.part_begin[static_cast<size_t>(p) + 1];
    ColumnIndex seen(keys, hi - lo);
    for (int64_t k = lo; k < hi; ++k) {
      const int64_t i = scatter.row_ids[static_cast<size_t>(k)];
      const uint64_t h = scatter.hashes[static_cast<size_t>(i)];
      if (seen.ContainsHashed(keys, i, h)) continue;
      seen.Add(i, h);
      survives[static_cast<size_t>(i)] = 1;
    }
  });

  // Compaction: per-morsel survivor selection vectors, prefix sum, then
  // parallel per-column gathers into disjoint ranges of the output arenas,
  // in row order. Two morsel passes, counted like RadixScatter's.
  const int64_t chunks = NumMorsels(n, opts.morsel_rows);
  CountMorsels(opts, 2 * chunks);
  std::vector<std::vector<int64_t>> selected(static_cast<size_t>(chunks));
  opts.scheduler->ParallelFor(chunks, [&](int64_t c) {
    const int64_t lo = c * opts.morsel_rows;
    const int64_t hi = std::min<int64_t>(n, lo + opts.morsel_rows);
    std::vector<int64_t>& sel = selected[static_cast<size_t>(c)];
    for (int64_t i = lo; i < hi; ++i) {
      if (survives[static_cast<size_t>(i)]) sel.push_back(i);
    }
  });
  std::vector<int64_t> offsets(static_cast<size_t>(chunks) + 1, 0);
  for (int64_t c = 0; c < chunks; ++c) {
    offsets[static_cast<size_t>(c) + 1] =
        offsets[static_cast<size_t>(c)] +
        static_cast<int64_t>(selected[static_cast<size_t>(c)].size());
  }
  const int64_t base = out.AppendRows(offsets.back());
  opts.scheduler->ParallelFor(chunks, [&](int64_t c) {
    const std::vector<int64_t>& sel = selected[static_cast<size_t>(c)];
    if (sel.empty()) return;
    const int64_t dst = base + offsets[static_cast<size_t>(c)];
    for (size_t k = 0; k < cols.size(); ++k) {
      GatherColumn(r.ColData(cols[k]), sel,
                   out.ColData(static_cast<int>(k)) + dst);
    }
  });
  return out;
}

Relation NaturalJoin(const Relation& r, const Relation& s) {
  return NaturalJoin(r, s, OpExecOpts());
}

Relation NaturalJoin(const Relation& r, const Relation& s,
                     const OpExecOpts& caller_opts) {
  // The probe side is the larger input (chosen below); auto-tune for the
  // wider of the two arities, the conservative cache-residency choice.
  const OpExecOpts opts =
      ResolveMorselRows(caller_opts, std::max(r.Arity(), s.Arity()));
  AttrSet common = r.Schema().Intersect(s.Schema());
  AttrSet result_schema = r.Schema().Union(s.Schema());
  Relation out(result_schema);

  std::vector<int> r_key_cols;
  std::vector<int> s_key_cols;
  common.ForEach([&](AttrId a) {
    r_key_cols.push_back(r.ColIndex(a));
    s_key_cols.push_back(s.ColIndex(a));
  });

  // Build on the smaller input.
  const Relation& build = s.NumRows() <= r.NumRows() ? s : r;
  const Relation& probe = s.NumRows() <= r.NumRows() ? r : s;
  const std::vector<int>& build_cols =
      (&build == &s) ? s_key_cols : r_key_cols;
  const std::vector<int>& probe_cols =
      (&build == &s) ? r_key_cols : s_key_cols;
  const std::vector<const Value*> probe_keys = KeyCols(probe, probe_cols);

  // Output column sources: for each result attribute, where to read it from.
  struct Source {
    bool from_probe;
    int col;
  };
  std::vector<Source> sources;
  sources.reserve(static_cast<size_t>(out.Arity()));
  for (AttrId a : out.Attrs()) {
    if (probe.Schema().Contains(a)) {
      sources.push_back(Source{true, probe.ColIndex(a)});
    } else {
      sources.push_back(Source{false, build.ColIndex(a)});
    }
  }

  // Emits the matched (probe row, build row) id pairs of one chunk into the
  // output rows starting at `dst`, one column gather at a time.
  auto GatherPairs = [&](const std::vector<int64_t>& probe_ids,
                         const std::vector<int64_t>& build_ids, int64_t dst) {
    for (size_t k = 0; k < sources.size(); ++k) {
      const Relation& src = sources[k].from_probe ? probe : build;
      GatherColumn(src.ColData(sources[k].col),
                   sources[k].from_probe ? probe_ids : build_ids,
                   out.ColData(static_cast<int>(k)) + dst);
    }
  };

  // Distinct (probe, build) row pairs yield distinct output tuples (the
  // output determines both inputs), so duplicate-free inputs give a
  // duplicate-free output; no dedupe or sort is needed on either path.
  if (!RunParallel(opts, probe.NumRows())) {
    BloomFilter bloom;
    const ColumnIndex index =
        BuildIndex(KeyCols(build, build_cols), build.NumRows(), &bloom);
    std::vector<int64_t> probe_ids;
    std::vector<int64_t> build_ids;
    std::vector<uint64_t> scratch;
    int64_t pruned = 0;
    ForEachHashed(probe_keys, 0, probe.NumRows(), scratch,
                  [&](int64_t i, uint64_t h) {
                    if (bloom.enabled() && !bloom.MaybeContains(h)) {
                      ++pruned;
                      return;
                    }
                    index.ForEachMatchHashed(probe_keys, i, h, [&](int64_t j) {
                      probe_ids.push_back(i);
                      build_ids.push_back(j);
                    });
                  });
    CountPrunes(opts, pruned, 0);
    const int64_t base =
        out.AppendRows(static_cast<int64_t>(probe_ids.size()));
    GatherPairs(probe_ids, build_ids, base);
    return out;
  }

  // Parallel form: partitioned Bloom-filtered hash build, then a PROBE-SIDE
  // radix scatter of the probe relation by the build's own partition
  // function (the same structure Semijoin's parallel kernel uses): each
  // probe chunk walks exactly one cache-resident partition — bucket array
  // plus Bloom filter — instead of every morsel touching all of them. The
  // Bloom accept/reject decisions reuse the same filters on the same hashes
  // as the morsel-range path did, so the prune counters are numerically
  // unchanged.
  PartitionedColumnIndex index(build, build_cols, opts);
  const int64_t n = probe.NumRows();
  RadixScatter probe_scatter(n, probe_keys, opts, index.bits());

  struct ProbeChunk {
    int part;
    int64_t lo, hi;  // range of probe_scatter.row_ids
  };
  std::vector<ProbeChunk> probe_chunks;
  for (int p = 0; p < index.num_partitions(); ++p) {
    const int64_t plo = probe_scatter.part_begin[static_cast<size_t>(p)];
    const int64_t phi = probe_scatter.part_begin[static_cast<size_t>(p) + 1];
    if (plo == phi) continue;
    const int64_t step = ClampMorselToPartition(opts.morsel_rows, phi - plo);
    for (int64_t lo = plo; lo < phi; lo += step) {
      probe_chunks.push_back(ProbeChunk{p, lo, std::min(phi, lo + step)});
    }
  }
  const int64_t chunks = static_cast<int64_t>(probe_chunks.size());
  CountMorsels(opts, chunks);
  std::vector<std::vector<int64_t>> probe_ids(static_cast<size_t>(chunks));
  std::vector<std::vector<int64_t>> build_ids(static_cast<size_t>(chunks));
  MergeOrder merge(chunks, opts.deterministic);
  // Deterministic mode restores the serial output order with a k-way merge
  // of the per-partition runs: per-probe-row match counts (written
  // disjointly — every probe row lives in exactly one chunk) are prefix-
  // summed over GLOBAL row order below, which interleaves the runs exactly
  // as the serial probe would have emitted them.
  std::vector<int64_t> row_matches;
  if (opts.deterministic) row_matches.assign(static_cast<size_t>(n), 0);
  opts.scheduler->ParallelFor(chunks, [&](int64_t c) {
    const ProbeChunk& chunk = probe_chunks[static_cast<size_t>(c)];
    const ColumnIndex& part = index.part(chunk.part);
    std::vector<int64_t>& pids = probe_ids[static_cast<size_t>(c)];
    std::vector<int64_t>& bids = build_ids[static_cast<size_t>(c)];
    int64_t pruned = 0;
    for (int64_t k = chunk.lo; k < chunk.hi; ++k) {
      const int64_t i = probe_scatter.row_ids[static_cast<size_t>(k)];
      const uint64_t h = probe_scatter.hashes[static_cast<size_t>(i)];
      if (!index.PartitionMaybeContains(chunk.part, h)) {
        ++pruned;
        continue;
      }
      part.ForEachMatchHashed(probe_keys, i, h, [&](int64_t j) {
        pids.push_back(i);
        bids.push_back(j);
      });
    }
    if (opts.deterministic) {
      for (int64_t p : pids) ++row_matches[static_cast<size_t>(p)];
    }
    CountPrunes(opts, pruned, pruned);
    merge.Record(c);
  });

  if (opts.deterministic) {
    // Exclusive prefix sum over global probe-row order: row i's matches
    // land at [row_start[i], row_start[i] + row_matches[i]) — the offset
    // the serial kernel writes them to. Within one probe row the matches
    // arrived in the partition chain's most-recent-first order, which
    // equals the serial chain's order (equal keys share a partition, and
    // partitions insert in global build-row order), so the whole output is
    // bit-identical to serial. The scatter is parallel: one probe row's
    // pairs are contiguous within its single producing chunk.
    std::vector<int64_t> row_start(static_cast<size_t>(n));
    int64_t total = 0;
    for (int64_t i = 0; i < n; ++i) {
      row_start[static_cast<size_t>(i)] = total;
      total += row_matches[static_cast<size_t>(i)];
    }
    const int64_t base = out.AppendRows(total);
    opts.scheduler->ParallelFor(chunks, [&](int64_t c) {
      const std::vector<int64_t>& pids = probe_ids[static_cast<size_t>(c)];
      if (pids.empty()) return;
      const std::vector<int64_t>& bids = build_ids[static_cast<size_t>(c)];
      std::vector<int64_t> dst(pids.size());
      int64_t run = 0;
      for (size_t t = 0; t < pids.size(); ++t) {
        run = (t > 0 && pids[t] == pids[t - 1]) ? run + 1 : 0;
        dst[t] = row_start[static_cast<size_t>(pids[t])] + run;
      }
      for (size_t k = 0; k < sources.size(); ++k) {
        const Relation& src = sources[k].from_probe ? probe : build;
        const Value* col = src.ColData(sources[k].col);
        const std::vector<int64_t>& ids = sources[k].from_probe ? pids : bids;
        Value* out_col = out.ColData(static_cast<int>(k)) + base;
        for (size_t t = 0; t < ids.size(); ++t) {
          out_col[dst[t]] = col[static_cast<size_t>(ids[t])];
        }
      }
    });
    return out;
  }

  // Non-deterministic mode: concatenate chunk outputs in completion order
  // (same set of pairs, unspecified row order) — no merge pass at all.
  std::vector<int64_t> offsets = MergeOffsets(merge.order(), [&](int64_t c) {
    return static_cast<int64_t>(probe_ids[static_cast<size_t>(c)].size());
  });
  const int64_t base = out.AppendRows(offsets.back());
  opts.scheduler->ParallelFor(chunks, [&](int64_t pos) {
    const int64_t c = merge.order()[static_cast<size_t>(pos)];
    if (probe_ids[static_cast<size_t>(c)].empty()) return;
    GatherPairs(probe_ids[static_cast<size_t>(c)],
                build_ids[static_cast<size_t>(c)],
                base + offsets[static_cast<size_t>(pos)]);
  });
  return out;
}

Relation Semijoin(const Relation& r, const Relation& s) {
  return Semijoin(r, s, OpExecOpts());
}

Relation Semijoin(const Relation& r, const Relation& s,
                  const OpExecOpts& caller_opts) {
  const OpExecOpts opts = ResolveMorselRows(caller_opts, r.Arity());
  AttrSet common = r.Schema().Intersect(s.Schema());
  Relation out(r.Schema());
  std::vector<int> r_cols;
  std::vector<int> s_cols;
  common.ForEach([&](AttrId a) {
    r_cols.push_back(r.ColIndex(a));
    s_cols.push_back(s.ColIndex(a));
  });
  const std::vector<const Value*> probe_keys = KeyCols(r, r_cols);

  // Zone-map disjointness: when some key column's value ranges in r and s
  // provably cannot overlap, no r row can have a match — the result is
  // empty without hashing a single row. Bit-identical to the full path's
  // empty result (a fresh relation and an AppendRows(0) compaction are both
  // canonical), so the skip is safe in every determinism mode. ZoneRange
  // answers only when the maps are current (AddRow-built or canonicalized
  // inputs) and both sides are non-empty.
  for (size_t k = 0; k < r_cols.size(); ++k) {
    Value rmin, rmax, smin, smax;
    if (r.ZoneRange(r_cols[k], &rmin, &rmax) &&
        s.ZoneRange(s_cols[k], &smin, &smax) &&
        (rmax < smin || smax < rmin)) {
      if (opts.zone_skip_counter != nullptr) {
        opts.zone_skip_counter->fetch_add(r.NumRows(),
                                          std::memory_order_relaxed);
      }
      return out;
    }
  }

  // Emits the selected row ids into output rows starting at `dst`, one
  // column gather at a time (schemas are identical, so columns align 1:1).
  auto GatherSelected = [&](const std::vector<int64_t>& sel, int64_t dst) {
    for (int c = 0; c < r.Arity(); ++c) {
      GatherColumn(r.ColData(c), sel, out.ColData(c) + dst);
    }
  };

  if (!RunParallel(opts, r.NumRows())) {
    BloomFilter bloom;
    const ColumnIndex index =
        BuildIndex(KeyCols(s, s_cols), s.NumRows(), &bloom);

    // Selection pass: record matching row indices (SIP- and Bloom-rejected
    // probes never walk a chain), then compact per column in one sweep.
    std::vector<int64_t> selected;
    std::vector<uint64_t> scratch;
    int64_t pruned = 0;
    int64_t sip_pruned = 0;
    ForEachHashed(probe_keys, 0, r.NumRows(), scratch,
                  [&](int64_t i, uint64_t h) {
                    if (SipReject(opts.sip_filters, h)) {
                      ++sip_pruned;
                      return;
                    }
                    if (bloom.enabled() && !bloom.MaybeContains(h)) {
                      ++pruned;
                      return;
                    }
                    if (index.ContainsHashed(probe_keys, i, h)) {
                      selected.push_back(i);
                    }
                  });
    CountPrunes(opts, pruned, 0);
    CountSip(opts, sip_pruned);
    const int64_t base =
        out.AppendRows(static_cast<int64_t>(selected.size()));
    GatherSelected(selected, base);
    // A subsequence of a canonical relation is still sorted and unique.
    if (r.IsCanonical()) out.MarkCanonical();
    return out;
  }

  // Parallel form: partitioned Bloom-filtered build over s, then a
  // PROBE-SIDE radix scatter of r by the build's own partition function, so
  // each probe task walks exactly one cache-resident partition (bucket
  // array + Bloom filter) instead of every morsel touching all of them.
  // Chunk sizes are clamped per partition (ClampMorselToPartition) so no
  // chunk ever spans a partition boundary.
  //
  // Survivors land in a shared per-row bitmap (disjoint bytes — each probe
  // row belongs to exactly one partition) and are compacted in input row
  // order, so the output is bit-identical to the serial kernel's in BOTH
  // determinism modes; scheduling only decides where each chunk runs. The
  // Bloom accept/reject decisions reuse the build's filters on the same
  // hashes as the morsel-range path did, so the prune counters are
  // numerically unchanged.
  PartitionedColumnIndex index(s, s_cols, opts);
  const int64_t n = r.NumRows();
  RadixScatter probe_scatter(n, probe_keys, opts, index.bits());

  struct ProbeChunk {
    int part;
    int64_t lo, hi;  // range of probe_scatter.row_ids
  };
  std::vector<ProbeChunk> probe_chunks;
  for (int p = 0; p < index.num_partitions(); ++p) {
    const int64_t plo = probe_scatter.part_begin[static_cast<size_t>(p)];
    const int64_t phi = probe_scatter.part_begin[static_cast<size_t>(p) + 1];
    if (plo == phi) continue;
    const int64_t step = ClampMorselToPartition(opts.morsel_rows, phi - plo);
    for (int64_t lo = plo; lo < phi; lo += step) {
      probe_chunks.push_back(ProbeChunk{p, lo, std::min(phi, lo + step)});
    }
  }
  const int64_t num_probe_chunks = static_cast<int64_t>(probe_chunks.size());
  CountMorsels(opts, num_probe_chunks);
  std::vector<uint8_t> survives(static_cast<size_t>(n), 0);
  opts.scheduler->ParallelFor(num_probe_chunks, [&](int64_t c) {
    const ProbeChunk& chunk = probe_chunks[static_cast<size_t>(c)];
    const ColumnIndex& part = index.part(chunk.part);
    int64_t pruned = 0;
    int64_t sip_pruned = 0;
    for (int64_t k = chunk.lo; k < chunk.hi; ++k) {
      const int64_t i = probe_scatter.row_ids[static_cast<size_t>(k)];
      const uint64_t h = probe_scatter.hashes[static_cast<size_t>(i)];
      if (SipReject(opts.sip_filters, h)) {
        ++sip_pruned;
        continue;
      }
      if (!index.PartitionMaybeContains(chunk.part, h)) {
        ++pruned;
        continue;
      }
      if (part.ContainsHashed(probe_keys, i, h)) {
        survives[static_cast<size_t>(i)] = 1;
      }
    }
    CountPrunes(opts, pruned, pruned);
    CountSip(opts, sip_pruned);
  });

  // Compaction in input row order (same two-pass shape as Project's):
  // per-morsel survivor selection vectors, prefix sum, parallel gathers.
  const int64_t chunks = NumMorsels(n, opts.morsel_rows);
  CountMorsels(opts, 2 * chunks);
  std::vector<std::vector<int64_t>> selected(static_cast<size_t>(chunks));
  opts.scheduler->ParallelFor(chunks, [&](int64_t c) {
    const int64_t lo = c * opts.morsel_rows;
    const int64_t hi = std::min<int64_t>(n, lo + opts.morsel_rows);
    std::vector<int64_t>& sel = selected[static_cast<size_t>(c)];
    for (int64_t i = lo; i < hi; ++i) {
      if (survives[static_cast<size_t>(i)]) sel.push_back(i);
    }
  });
  std::vector<int64_t> offsets(static_cast<size_t>(chunks) + 1, 0);
  for (int64_t c = 0; c < chunks; ++c) {
    offsets[static_cast<size_t>(c) + 1] =
        offsets[static_cast<size_t>(c)] +
        static_cast<int64_t>(selected[static_cast<size_t>(c)].size());
  }
  const int64_t base = out.AppendRows(offsets.back());
  opts.scheduler->ParallelFor(chunks, [&](int64_t c) {
    const std::vector<int64_t>& sel = selected[static_cast<size_t>(c)];
    if (sel.empty()) return;
    GatherSelected(sel, base + offsets[static_cast<size_t>(c)]);
  });
  // Row-ordered compaction of a canonical input is still a subsequence —
  // in both determinism modes (the survivor bitmap erases scheduling order).
  if (r.IsCanonical()) out.MarkCanonical();
  return out;
}

Relation JoinAll(const std::vector<Relation>& relations) {
  GYO_CHECK_MSG(!relations.empty(), "JoinAll requires at least one relation");
  Relation acc = relations[0];
  for (size_t i = 1; i < relations.size(); ++i) {
    acc = NaturalJoin(acc, relations[i]);
  }
  return acc;
}

BloomFilter BuildSipFilter(const Relation& rel, const std::vector<int>& cols) {
  const int64_t n = rel.NumRows();
  BloomFilter filter(n);
  const std::vector<const Value*> keys = KeyCols(rel, cols);
  std::vector<uint64_t> scratch;
  ForEachHashed(keys, 0, n, scratch,
                [&](int64_t, uint64_t h) { filter.Add(h); });
  return filter;
}

}  // namespace gyo
