// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// RemoteListIo: the access policy that serves the algorithm loops' list
// primitives from ListOwner shards through Coordinator::ListRpc — one more
// implementation of Fagin's sorted/random-access interface, beside the
// local RawListIo/EngineIo/FaultIo (core/list_io.h). The coordinator runs
// the ordinary RunBpaLoop/RunTputLoop/RunNraLoop templates over it, so the
// distributed engines share every stop rule with the single-node ones.
//
// Wire shape (what the coordinator sends, in order):
//
//  * Sorted access is served from a per-list window buffer. SortedAlive(i)
//    — which the fault-aware loops call before every sorted access — is the
//    refill point: when the list's next position is not buffered it sends a
//    kSortedWindow of min(window_rows, horizon - p + 1) rows (horizon = n,
//    or the prefix depth after LimitSortedWindows), or, once DrainTo set a
//    threshold, a kDrain of up to 16 * window_rows rows whose threshold
//    stop runs at the owner. The stop ends a drain at the same row whatever
//    the cap, so a drain ships no more rows than a window-sized one would,
//    in a sixteenth of the messages; window_rows itself stays small because
//    it bounds how far dBPA's lookahead overshoots its stop. Sorted(i, p)
//    then reads the buffer.
//  * Random access is served from per-list lookup batches issued before the
//    loop consumes them: the loop queues the (list, item) pairs it is about
//    to access (QueueRandom), IssueRandom sends one kRandomLookup per list
//    in list order, and Random(j, item) pops list j's answers in the order
//    they were queued. dBPA queues a whole window of rows at once: every
//    item the buffered rows see for the first time (RequestOnce dedupes),
//    so one lookup round serves up to window_rows rows. Lookups the loop
//    never pops — past its stop row — are sent but not counted as accesses.
//  * Each request and reply crosses the transport as an encoded frame
//    (dist/wire_codec.h), and DistStats counts the frames' lengths: window
//    and drain rows pack to ~8 bytes a row on a uniform n = 100k list, a
//    lookup costs 4 bytes per requested id and 12 per answer.
//
// Virtual time runs on a lane clock. A round is the span between two
// barriers: BeginRound (a dBPA window, a dTPUT phase, a degraded-NRA check
// interval) and the start of IssueRandom, since lookups need every window
// first. Within a round every RPC runs on its own list's lane, which starts
// at the round's start time; its retries, backoff, hedges and half-open
// probes stay on that lane, so breaker windows see the lane's time. The
// coordinator's DistStats::virtual_ms always reads the round's start plus
// its longest lane — the requests of one round go out concurrently.
// DistStats::rounds counts the rounds that sent a message: the real round
// trips.
//
// Death: a list dies when its whole replica group dies (ListRpc fails
// Unavailable). It then reports dead through SortedAlive/RandomAlive, so the
// loops take their fault-aware paths (kFaultAware = true). A
// non-Unavailable RPC failure is a protocol bug, not a fault: it is kept in
// Buffers::error, every list reports dead so the loop ends quickly, and the
// coordinator surfaces the error.
//
// Access counts are one increment per Sorted/Random call, exactly like
// RawListIo's, so a fault-free distributed run reports the single-node
// run's counts.

#ifndef TOPK_DIST_REMOTE_LIST_IO_H_
#define TOPK_DIST_REMOTE_LIST_IO_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/execution_context.h"
#include "lists/access_engine.h"
#include "lists/access_stats.h"
#include "lists/types.h"

namespace topk {

class Coordinator;

class RemoteListIo {
 public:
  static constexpr bool kFaultAware = true;
  static constexpr bool kLocal = false;

  /// Per-query policy state, owned by the Coordinator so its storage is
  /// retained across queries.
  struct Buffers {
    struct List {
      Position window_base = 0;  ///< position of window[0]
      Position window_end = 0;   ///< one past the last buffered position
      std::vector<ListEntry> window;
      Position next = 1;  ///< the position the loop reads next
      std::vector<ItemId> queued;  ///< lookups queued for the next batch
      std::vector<ItemId> issued;  ///< the last batch sent, request order
      std::vector<ItemLookup> lookups;  ///< its answers
      size_t popped = 0;                ///< answers consumed so far
      bool alive = true;  ///< replica group alive, no protocol error
      double lane_ms = 0.0;  ///< this list's lane clock in the round
    };

    /// Starts a query over `m` lists of `n` positions: empty windows,
    /// cursors at position 1, no batches, zero counts. With `bpa` every
    /// served score is kept by position for ScoreAtSeen, in epoch-stamped
    /// memos that reset in O(1), and the requested set starts empty.
    void Reset(size_t m, size_t n, bool bpa);

    /// Rewinds every sorted cursor to position 1 and drops the buffered
    /// windows, the horizon and the drain threshold: the degraded NRA
    /// re-scans from scratch, like the single-node failover. Access counts
    /// carry over.
    void RestartScans();

    std::vector<List> lists;
    Position num_items = 0;
    Position horizon = 0;
    bool draining = false;
    Score drain_threshold = 0.0;
    bool record_seen = false;
    std::vector<ScoreMemo> seen;  ///< per list, keyed by position
    std::vector<uint64_t> requested;  ///< dBPA: items looked up, a bitset
    AccessStats access;
    Status error;
  };

  RemoteListIo(Coordinator* coordinator, Buffers* buffers)
      : coordinator_(coordinator), buffers_(buffers) {}

  // --- the loops' primitives ---

  /// The entry at `position` of the list; requires a preceding
  /// SortedAlive(list_index) that returned true.
  AccessedEntry Sorted(size_t list_index, Position position) {
    const AccessedEntry entry = PeekSorted(list_index, position);
    buffers_->lists[list_index].next = position + 1;
    ++run_.sorted_accesses;
    RecordSeen(list_index, position, entry.score);
    return entry;
  }

  /// The next answer of the list's issued batch, which was queued for
  /// `item`.
  ItemLookup Random(size_t list_index, [[maybe_unused]] ItemId item) {
    Buffers::List& list = buffers_->lists[list_index];
    assert(list.popped < list.lookups.size() &&
           list.issued[list.popped] == item);
    const ItemLookup lookup = list.lookups[list.popped++];
    ++run_.random_accesses;
    RecordSeen(list_index, lookup.position, lookup.score);
    return lookup;
  }

  /// Like RawListIo, a run counts into the policy object (kept in
  /// registers by the loop) and flushes once into Buffers::access, which
  /// carries the counts across the degrade's second run.
  void Flush() {
    buffers_->access += run_;
    run_ = AccessStats{};
  }
  AccessStats stats() const { return buffers_->access + run_; }

  /// True when the list is alive and its next entry is buffered — the
  /// refill point (see the file comment).
  bool SortedAlive(size_t list_index) {
    const Buffers::List& list = buffers_->lists[list_index];
    if (!list.alive) {
      return false;
    }
    return list.next < list.window_end || Refill(list_index);
  }
  bool RandomAlive(size_t list_index) const {
    return buffers_->lists[list_index].alive;
  }
  uint32_t DeadLists() const;
  /// Virtual time charged so far: the coordinator's DistStats::virtual_ms.
  double VirtualLatencyMs() const;

  // --- list metadata (from the catalog) ---

  size_t num_items() const { return buffers_->num_items; }
  size_t num_lists() const { return buffers_->lists.size(); }
  Score MaxScore(size_t list_index) const;
  /// A position not served this query (0: nothing seen yet) is bounded by
  /// the list maximum.
  Score ScoreAtSeen(size_t list_index, Position position) const {
    const ScoreMemo& seen = buffers_->seen[list_index];
    return seen.Contains(position) ? seen.Get(position)
                                   : MaxScore(list_index);
  }
  double SummationMargin(double score_floor) const;

  /// The item at `position` (<= n) if the list's window buffers it, for
  /// the loops' uncounted pool-probe prefetches; null otherwise.
  const ItemId* UpcomingItem(size_t list_index, Position position) const {
    const Buffers::List& list = buffers_->lists[list_index];
    return position < list.window_end
               ? &list.window[position - list.window_base].item
               : nullptr;
  }

  // --- wire hooks (called by the loops only for remote policies) ---

  /// A barrier: the next round starts when the longest lane of this one
  /// ends. The round is counted on its first message, if any.
  void BeginRound();

  /// Uncounted read of the buffered entry at `position` (the next one);
  /// requires a preceding SortedAlive(list_index) that returned true.
  AccessedEntry PeekSorted(size_t list_index, Position position) const {
    const Buffers::List& list = buffers_->lists[list_index];
    const ListEntry entry = list.window[position - list.window_base];
    return AccessedEntry{entry.item, entry.score, position};
  }

  void QueueRandom(size_t list_index, ItemId item) {
    buffers_->lists[list_index].queued.push_back(item);
  }

  /// True the first time `item` is requested this query: dBPA queues each
  /// item's lookups once, however many buffered rows show it.
  bool RequestOnce(ItemId item) {
    uint64_t& word = buffers_->requested[item >> 6];
    const uint64_t bit = uint64_t{1} << (item & 63);
    const bool first = (word & bit) == 0;
    word |= bit;
    return first;
  }

  /// The last position every live list's window buffers; 0 when no list
  /// is alive.
  Position BufferedThrough() const;

  /// A barrier, then one round that sends every live list's queued lookups
  /// (one message per non-empty batch, in list order) and makes the answers
  /// poppable.
  void IssueRandom();

  /// Sorted windows end at `horizon` (TPUT's phase-1 prefix depth).
  void LimitSortedWindows(Position horizon) { buffers_->horizon = horizon; }

  /// Refills become kDrain requests at `threshold` (TPUT phase 2).
  void DrainTo(Score threshold) {
    buffers_->draining = true;
    buffers_->drain_threshold = threshold;
  }

 private:
  void RecordSeen(size_t list_index, Position position, Score score) {
    if (buffers_->record_seen) {
      buffers_->seen[list_index].Put(position, score);
    }
  }

  /// Sends one refill of the list's window at its next position; false
  /// when the list died (or a protocol error was recorded).
  bool Refill(size_t list_index);

  /// Routes one RPC through Coordinator::ListRpc on the list's lane; a
  /// non-Unavailable failure is recorded in Buffers::error. Owners only die
  /// inside RPCs, so this is where the lists' alive flags are refreshed — an
  /// RPC for one list can kill the last replica of another list its owner
  /// serves.
  bool Call(size_t list_index);

  Coordinator* coordinator_;
  Buffers* buffers_;
  AccessStats run_;  // this run's accesses, not yet flushed
  bool round_open_ = false;  // a round not yet counted (nothing sent yet)
};

}  // namespace topk

#endif  // TOPK_DIST_REMOTE_LIST_IO_H_
