// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// The BPA run loop (paper Section 4), templated on the access policy so the
// single-node engine (core/bpa_algorithm.cc) and the distributed coordinator
// (dist/coordinator.cc) run the same stop rule. See core/list_io.h for the
// policies.

#ifndef TOPK_CORE_BPA_LOOP_H_
#define TOPK_CORE_BPA_LOOP_H_

#include <algorithm>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/execution_context.h"
#include "core/list_io.h"
#include "core/query_governor.h"
#include "core/topk_algorithm.h"
#include "core/topk_buffer.h"
#include "tracker/bitarray_tracker.h"

namespace topk {

// The run loop is templated on the access policy, the concrete tracker and
// the concrete scorer. Tracker and scorer classes are `final`, so for the
// default configuration (raw list reads, bit-array tracker, summation
// scoring) every per-access call devirtualizes and inlines down to a handful
// of loads; the generic instantiations keep virtual dispatch for the other
// configurations. The caller prepares the context's trackers.
template <typename IoT, typename TrackerT, typename ScorerT>
Status RunBpaLoop(const AlgorithmOptions& options, const TopKQuery& query,
                  ExecutionContext* context, IoT io, TopKResult* result) {
  const size_t n = io.num_items();
  const size_t m = io.num_lists();
  // A remote policy always memoizes: its batched protocol resolves every
  // item exactly once, which is memoize_seen_items' access pattern.
  const bool memoize = options.memoize_seen_items || !IoT::kLocal;
  const ScorerT& scorer = static_cast<const ScorerT&>(*query.scorer);

  TopKBuffer& buffer = context->buffer();
  std::vector<Score>& local = context->local_scores();
  ScoreMemo* resolved = memoize ? &context->PrepareMemo(n) : nullptr;
  BitArrayTracker* const bit_trackers = context->bitarray_trackers();
  const auto tracker = [context, bit_trackers](size_t i) -> TrackerT& {
    if constexpr (std::is_same_v<TrackerT, BitArrayTracker>) {
      return bit_trackers[i];  // contiguous, no pointer chase
    } else {
      return static_cast<TrackerT&>(context->tracker(i));
    }
  };

  Position depth = 0;
  bool stopped = false;
  // The tracker-word prefetch stage only pays once the mirror (and with it
  // the tracker word arrays) outgrows the fast caches; at cache-resident
  // sizes the extra positions-row read plus m PrefetchMark calls per
  // (depth, list) are pure overhead (~10% BPA throughput at n=10k,
  // measured back-to-back), so it is gated on the mirror exceeding an
  // L2-sized footprint.
  [[maybe_unused]] bool prefetch_marks = false;
  if constexpr (IoT::kLocal) {
    prefetch_marks = n * io.db().item_row_stride_bytes() > (size_t{4} << 20);
  }
  // λ cache: best positions only ever grow, so the bp sum is an exact
  // change signature — λ is recomputed only on rows where some bp advanced.
  uint64_t bp_signature = ~uint64_t{0};
  Score lambda = std::numeric_limits<Score>::infinity();
  QueryGovernor& governor = context->governor();
  Completion reason = Completion::kExact;
  // Remote lists: the last row the issued lookups cover.
  [[maybe_unused]] Position looked_ahead = 0;
  while (!stopped && depth < n) {
    ++depth;
    if constexpr (!IoT::kLocal) {
      if (depth > looked_ahead) {
        // Remote lists: two fan-out rounds per window of rows. The first
        // refills every live list's window at this row. The second issues
        // one lookup batch per list covering every item the buffered rows
        // see for the first time — exactly the random accesses the rows
        // below make, queued in the order they make them, so λ, the buffer
        // and the counts are those of the local memoized loop. Lookups for
        // rows past the stop are sent but never consumed or counted.
        io.BeginRound();
        for (size_t i = 0; i < m; ++i) {
          io.SortedAlive(i);
        }
        looked_ahead = std::max(depth, io.BufferedThrough());
        bool queued = false;
        for (Position d = depth; d <= looked_ahead; ++d) {
          for (size_t i = 0; i < m; ++i) {
            if (!io.RandomAlive(i)) {
              continue;
            }
            const ItemId item = io.PeekSorted(i, d).item;
            if (!io.RequestOnce(item)) {
              continue;
            }
            queued = true;
            for (size_t j = 0; j < m; ++j) {
              if (j != i) {
                io.QueueRandom(j, item);
              }
            }
          }
        }
        // A list lost during the refills dooms the first resolution below
        // (the fault-aware check), so fail over now, before spending the
        // lookups.
        for (size_t j = 0; j < m && queued; ++j) {
          if (!io.RandomAlive(j)) {
            io.Flush();
            return Status::Unavailable(
                "BPA: list ", j,
                " died permanently; random access is unavailable");
          }
        }
        io.IssueRandom();
      }
    }
    // Fault injection: a dead list's sorted scan is skipped. λ stays a sound
    // upper bound on unseen items — the best-position argument is
    // depth-independent (an item never seen anywhere sits below every bp).
    [[maybe_unused]] bool row_progress = !IoT::kFaultAware;
    for (size_t i = 0; i < m; ++i) {
      if constexpr (IoT::kFaultAware) {
        if (!io.SortedAlive(i)) {
          continue;
        }
        row_progress = true;
      }
      const AccessedEntry entry = io.Sorted(i, depth);
      if constexpr (IoT::kLocal) {
        const Database& db = io.db();
        // Prefetch pipelining (see ta_algorithm.cc): request the mirror row
        // (and memo entry) of this list's row kPrefetchRowsAhead iterations
        // ahead while combining the current, already-prefetched row.
        if (depth + kPrefetchRowsAhead <= n) {
          const ItemId ahead =
              db.list(i).items()[depth - 1 + kPrefetchRowsAhead];
          PrefetchItemRows(db, ahead, m);
          if (memoize) {
            resolved->Prefetch(ahead);
          }
        }
        // Second pipeline stage (bit-array fast path, DRAM-scale databases
        // only): the mirror row two sorted rows ahead is cached by now, so
        // its positions are readable at L1 cost — prefetch the tracker words
        // the marks for that row will hit. Uncounted, decision-free reads:
        // the access pattern and all counters are unchanged.
        if constexpr (std::is_same_v<TrackerT, BitArrayTracker>) {
          if (prefetch_marks && depth + kPrefetchMarksAhead <= n) {
            const ItemId near_item =
                db.list(i).items()[depth - 1 + kPrefetchMarksAhead];
            const Position* positions = db.ItemPositionsRow(near_item);
            for (size_t j = 0; j < m; ++j) {
              bit_trackers[j].PrefetchMark(positions[j]);
            }
          }
        }
      }
      tracker(i).MarkSeen(entry.position);
      if (memoize && resolved->Contains(entry.item)) {
        // Positions of this item were already recorded in every list the
        // first time it was resolved; only the buffer offer remains.
        buffer.Offer(entry.item, resolved->Get(entry.item));
        continue;
      }
      if constexpr (IoT::kFaultAware) {
        // BPA resolves every newly seen item with (m-1) random accesses; a
        // dead list makes that impossible — fail over to NRA.
        for (size_t j = 0; j < m; ++j) {
          if (j != i && !io.RandomAlive(j)) {
            io.Flush();
            return Status::Unavailable(
                "BPA: list ", j,
                " died permanently; random access is unavailable");
          }
        }
      }
      Score overall;
      if constexpr (std::is_same_v<ScorerT, SumScorer>) {
        // Summation needs no per-list score vector: accumulate in a register
        // (identical addition order to SumScorer::Combine over local[]).
        overall = 0.0;
        for (size_t j = 0; j < m; ++j) {
          if (j == i) {
            overall += entry.score;
            continue;
          }
          const ItemLookup lookup = io.Random(j, entry.item);
          tracker(j).MarkSeen(lookup.position);
          overall += lookup.score;
        }
      } else {
        for (size_t j = 0; j < m; ++j) {
          if (j == i) {
            local[j] = entry.score;
            continue;
          }
          const ItemLookup lookup = io.Random(j, entry.item);
          tracker(j).MarkSeen(lookup.position);
          local[j] = lookup.score;
        }
        overall = scorer.Combine(local.data(), m);
      }
      if (memoize) {
        resolved->Put(entry.item, overall);
      }
      buffer.Offer(entry.item, overall);
    }
    if constexpr (IoT::kFaultAware) {
      if (!row_progress) {
        reason = Completion::kListFailure;
        break;
      }
    }
    // Best positions overall score λ. Reading si(bpi) is not a charged list
    // access: the entry at the best position was necessarily seen already.
    uint64_t signature = 0;
    for (size_t i = 0; i < m; ++i) {
      signature += tracker(i).best_position();
    }
    if (signature != bp_signature) {
      bp_signature = signature;
      for (size_t i = 0; i < m; ++i) {
        local[i] = io.ScoreAtSeen(i, tracker(i).best_position());
      }
      lambda = scorer.Combine(local.data(), m);
    }
    if (options.collect_trace) {
      Position min_bp = static_cast<Position>(n);
      for (size_t i = 0; i < m; ++i) {
        min_bp = std::min(min_bp, tracker(i).best_position());
      }
      result->trace.push_back(StopRuleTrace{
          depth, lambda,
          buffer.full() ? buffer.KthScore()
                        : std::numeric_limits<double>::quiet_NaN(),
          buffer.size(), min_bp});
    }
    // Strictly above λ: a tie could belong to an unseen item with a smaller
    // id (see TopKBuffer::HasKAbove). At depth == n the loop ends with every
    // item resolved — the exact deterministic top-k.
    if (buffer.HasKAbove(lambda)) {
      stopped = true;
    }
    // Governance: one predictable branch per row when nothing is armed.
    if (!stopped &&
        (reason = governor.Charge(io.stats(), 0, io.VirtualLatencyMs())) !=
            Completion::kExact) {
      break;
    }
  }
  io.Flush();

  buffer.AppendSortedItems(&result->items);
  result->stop_position = depth;
  Position min_bp = static_cast<Position>(n);
  for (size_t i = 0; i < m; ++i) {
    min_bp = std::min(min_bp, tracker(i).best_position());
  }
  result->min_best_position = min_bp;
  if (reason != Completion::kExact) {
    // Anytime exit: buffered scores are exact; λ (from the last completed
    // row) bounds every unseen item, and rejected seen items sit below the
    // k-th buffered score, which CertifyAnytime folds in.
    const Score kth = result->items.empty()
                          ? -std::numeric_limits<Score>::infinity()
                          : result->items.back().score;
    CertifyAnytime(reason, kth, lambda, result);
  }
  return Status::OK();
}

/// Picks the loop instantiation for the configured tracker and the query's
/// scorer (summation gets the devirtualized fast path).
template <typename IoT>
Status DispatchBpa(const AlgorithmOptions& options, const TopKQuery& query,
                   ExecutionContext* context, IoT io, TopKResult* result) {
  const bool sum = dynamic_cast<const SumScorer*>(query.scorer) != nullptr;
  if (options.tracker == TrackerKind::kBitArray) {
    return sum ? RunBpaLoop<IoT, BitArrayTracker, SumScorer>(
                     options, query, context, io, result)
               : RunBpaLoop<IoT, BitArrayTracker, Scorer>(options, query,
                                                          context, io, result);
  }
  return sum ? RunBpaLoop<IoT, BestPositionTracker, SumScorer>(
                   options, query, context, io, result)
             : RunBpaLoop<IoT, BestPositionTracker, Scorer>(
                   options, query, context, io, result);
}

}  // namespace topk

#endif  // TOPK_CORE_BPA_LOOP_H_
