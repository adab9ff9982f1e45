// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Access policies: how the algorithm run loops reach their lists. The loops
// (core/bpa_loop.h, core/tput_loop.h, core/nra_loop.h and the TA/BPA2/FA/CA
// loops) are templates over the policy, so every algorithm has exactly one
// copy of its stop rule no matter where its lists live. Fagin's middleware
// model is the contract: a list offers sorted access, random access and (for
// BPA2) direct access, and the policy decides what one access costs.
//
//  * EngineIo routes every access through the AccessEngine — per-access
//    cursors, counters and the optional audit trail. Required whenever the
//    access pattern itself is observed (audit mode) or the engine's cursor
//    state matters.
//  * RawListIo reads the sorted lists directly and counts accesses into a
//    stack-resident AccessStats that is flushed into the engine once at the
//    end of the run. The counts are identical to EngineIo's by construction
//    (one increment per primitive call); what disappears is the per-access
//    read-modify-write traffic through the shared engine object, which the
//    optimizer cannot keep in registers. Only valid with audit mode off.
//  * FaultIo routes every access through the FaultInjectingAccessEngine
//    decorator, so its lists can die.
//  * RemoteListIo (dist/remote_list_io.h) serves the same primitives from
//    ListOwner shards through the distributed Coordinator's RPC layer.
//
// RunWithLocalIo (below) picks the local policy for every single-node
// algorithm.
//
// The three local policies (kLocal = true) share LocalLists: list metadata
// read straight off the Database, plus the database itself for the loops'
// uncounted cache prefetches. The remote policy has no database: it serves
// UpcomingItem (the pool-probe prefetch source) from its buffered windows,
// its loops compile the database prefetches out (`if constexpr
// (IoT::kLocal)`), and they call the wire hooks that only it defines —
// BeginRound, PeekSorted, QueueRandom/IssueRandom, RequestOnce,
// BufferedThrough, LimitSortedWindows, DrainTo — which the local
// instantiations compile out in turn.
//
// Policies whose lists can die report kFaultAware = true (FaultIo and
// RemoteListIo), so the loops' aliveness guards compile in; the loops call
// SortedAlive(i) before every sorted access and RandomAlive(j) before every
// random one. On the other policies those guards are
// `if constexpr`-eliminated — fault-free instantiations keep byte-identical
// behaviour and codegen shape.
//
// Shared contract: stats() exposes the run's access counts so far (for the
// governor's budget checks) and VirtualLatencyMs() the latency to charge
// against its deadline (0 except under FaultIo and RemoteListIo).

#ifndef TOPK_CORE_LIST_IO_H_
#define TOPK_CORE_LIST_IO_H_

#include "common/status.h"
#include "core/candidate_bounds.h"
#include "core/execution_context.h"
#include "lists/access_engine.h"
#include "lists/database.h"
#include "lists/fault_injection.h"
#include "lists/types.h"

namespace topk {

/// Pulls `item`'s interleaved item-major mirror row (m scores + m positions,
/// one contiguous region) toward the cache. The TA/BPA row loops issue this
/// kPrefetchRowsAhead sorted rows ahead of use — the upcoming sorted items
/// are known (list prefixes are sequential), so the row's DRAM latency is
/// overlapped with the processing of the rows in between instead of being
/// paid serially on every random access. Rows are stride-aligned (see
/// Database), so a row touches exactly ceil(12m/64) lines: one prefetch per
/// line, one line total for m <= 5.
inline void PrefetchItemRows(const Database& db, ItemId item, size_t m) {
  const char* row = reinterpret_cast<const char*>(db.ItemScoresRow(item));
  const size_t bytes = Database::ItemRowPayloadBytes(m);
  for (size_t offset = 0;; offset += 64) {
    __builtin_prefetch(row + offset);
    if (offset + 64 >= bytes) {
      break;
    }
  }
}

/// How many sorted rows ahead the TA/BPA loops prefetch the item-major
/// mirror row (and the memo entry, when memoization is on). Between issuing
/// the prefetch for row d + kPrefetchRowsAhead of list i and consuming it,
/// the loop processes ~kPrefetchRowsAhead * m items (each a combine over a
/// cache-resident row plus tracker/buffer work), which comfortably covers a
/// DRAM round-trip; the distance is short enough that the ~m prefetched
/// lines in flight cannot be evicted by the work in between.
inline constexpr Position kPrefetchRowsAhead = 8;

/// Shorter pipeline stage for BPA's tracker-word prefetch: the mirror row of
/// a sorted row this close ahead is already cached (requested
/// kPrefetchRowsAhead ago), so reading its positions costs an L1 hit, and
/// the tracker words those positions will mark get their own prefetch two
/// rows of work ahead of the marks.
inline constexpr Position kPrefetchMarksAhead = 2;

/// Pulls one sorted-order entry (item id + score, two parallel arrays)
/// toward the cache. BPA2 issues this speculatively at the top of a round
/// for every list's current bp + 1 — a random access earlier in the round
/// may advance bp and waste the prefetch, but a wasted prefetch costs
/// nothing observable while a hit hides the direct access's DRAM latency
/// (BPA2's direct accesses jump with bp, so the hardware stream prefetcher
/// does not cover them the way it covers TA/BPA's sequential scans).
inline void PrefetchSortedEntry(const SortedList& list, Position position) {
  __builtin_prefetch(&list.items()[position - 1]);
  __builtin_prefetch(&list.scores()[position - 1]);
}

/// List metadata of the local policies, read straight off the database.
/// The loops take n, m, the list maxima, the score at a seen best position
/// and the summation error margin from their policy, never from a Database.
class LocalLists {
 public:
  static constexpr bool kLocal = true;

  explicit LocalLists(const Database* db) : db_(db) {}

  size_t num_items() const { return db_->num_items(); }
  size_t num_lists() const { return db_->num_lists(); }
  Score MaxScore(size_t list_index) const {
    return db_->list(list_index).MaxScore();
  }
  /// Score at `position` of a list, which the run has already seen (an
  /// uncounted read: BPA's λ at the best positions). Position 0 — nothing
  /// seen yet — is bounded by the list maximum.
  Score ScoreAtSeen(size_t list_index, Position position) const {
    const SortedList& list = db_->list(list_index);
    return position == 0 ? list.MaxScore() : list.ScoreAtPosition(position);
  }
  double SummationMargin(double score_floor) const {
    return SummationErrorMargin(*db_, score_floor);
  }
  /// The item at sorted `position` (<= n) of a list, for the loops'
  /// uncounted, decision-free pool-probe prefetches; never null here.
  const ItemId* UpcomingItem(size_t list_index, Position position) const {
    return &db_->list(list_index).items()[position - 1];
  }
  /// The lists themselves, for the loops' uncounted cache prefetches.
  const Database& db() const { return *db_; }

 protected:
  const Database* db_;
};

/// Faithful policy: every access goes through the counted engine.
class EngineIo : public LocalLists {
 public:
  static constexpr bool kFaultAware = false;

  EngineIo(const Database* db, AccessEngine* engine)
      : LocalLists(db), engine_(engine) {}

  AccessedEntry Sorted(size_t list_index, Position /*position*/) {
    return engine_->SortedAccess(list_index);
  }
  ItemLookup Random(size_t list_index, ItemId item) {
    return engine_->RandomAccess(list_index, item);
  }
  AccessedEntry Direct(size_t list_index, Position position) {
    return engine_->DirectAccess(list_index, position);
  }
  void Flush() {}

  const AccessStats& stats() const { return engine_->stats(); }
  static constexpr bool SortedAlive(size_t) { return true; }
  static constexpr bool RandomAlive(size_t) { return true; }
  static constexpr uint32_t DeadLists() { return 0; }
  static constexpr double VirtualLatencyMs() { return 0.0; }

 private:
  AccessEngine* engine_;
};

/// Fast policy: direct list reads, registers-only counting, one flush.
/// The caller passes the sorted position explicitly (the loops know their
/// depth), so no cursor state is maintained; the engine's cursors stay at 0.
class RawListIo : public LocalLists {
 public:
  static constexpr bool kFaultAware = false;

  RawListIo(const Database* db, AccessEngine* engine)
      : LocalLists(db), engine_(engine) {}

  AccessedEntry Sorted(size_t list_index, Position position) {
    ++stats_.sorted_accesses;
    const ListEntry entry = db_->list(list_index).EntryAt(position);
    return AccessedEntry{entry.item, entry.score, position};
  }
  ItemLookup Random(size_t list_index, ItemId item) {
    ++stats_.random_accesses;
    // Item-major mirror: the (m-1) random accesses an algorithm issues for
    // one item hit the same one or two cache lines instead of m arrays.
    return ItemLookup{db_->ItemScoresRow(item)[list_index],
                      db_->ItemPositionsRow(item)[list_index]};
  }
  AccessedEntry Direct(size_t list_index, Position position) {
    ++stats_.direct_accesses;
    const ListEntry entry = db_->list(list_index).EntryAt(position);
    return AccessedEntry{entry.item, entry.score, position};
  }
  void Flush() { engine_->AddStats(stats_); }

  const AccessStats& stats() const { return stats_; }
  static constexpr bool SortedAlive(size_t) { return true; }
  static constexpr bool RandomAlive(size_t) { return true; }
  static constexpr uint32_t DeadLists() { return 0; }
  static constexpr double VirtualLatencyMs() { return 0.0; }

 private:
  AccessEngine* engine_;
  AccessStats stats_;
};

/// Fault-aware policy: every access goes through the fault decorator (and
/// from there through the counted engine, so counts and cursors stay
/// faithful). The loops must check SortedAlive/RandomAlive before every
/// access — see the death contract in lists/fault_injection.h.
class FaultIo : public LocalLists {
 public:
  static constexpr bool kFaultAware = true;

  FaultIo(const Database* db, FaultInjectingAccessEngine* faults)
      : LocalLists(db), faults_(faults) {}

  AccessedEntry Sorted(size_t list_index, Position /*position*/) {
    return faults_->SortedAccess(list_index);
  }
  ItemLookup Random(size_t list_index, ItemId item) {
    return faults_->RandomAccess(list_index, item);
  }
  AccessedEntry Direct(size_t list_index, Position position) {
    return faults_->DirectAccess(list_index, position);
  }
  void Flush() {}

  const AccessStats& stats() const { return faults_->stats(); }
  bool SortedAlive(size_t list_index) const {
    return faults_->ListAlive(list_index);
  }
  bool RandomAlive(size_t list_index) const {
    return faults_->ListAlive(list_index);
  }
  uint32_t DeadLists() const { return faults_->dead_lists(); }
  double VirtualLatencyMs() const { return faults_->virtual_latency_ms(); }

 private:
  FaultInjectingAccessEngine* faults_;
};

/// Runs the generic lambda `run` over EngineIo when audited, FaultIo when
/// the context's fault plan is armed, and RawListIo otherwise.
template <typename RunFn>
Status RunWithLocalIo(const Database& db, bool audit,
                      ExecutionContext* context, RunFn&& run) {
  if (audit) {
    return run(EngineIo(&db, &context->engine()));
  }
  if (context->faults().armed()) {
    return run(FaultIo(&db, &context->faults()));
  }
  return run(RawListIo(&db, &context->engine()));
}

}  // namespace topk

#endif  // TOPK_CORE_LIST_IO_H_
