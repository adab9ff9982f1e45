// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// The TPUT run loop (three-phase uniform threshold), templated on the access
// policy so the single-node engine (core/tput_algorithm.cc) and the
// distributed coordinator (dist/coordinator.cc) run the same phases. See
// core/list_io.h for the policies.

#ifndef TOPK_CORE_TPUT_LOOP_H_
#define TOPK_CORE_TPUT_LOOP_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "core/candidate_bounds.h"
#include "core/candidate_pool.h"
#include "core/execution_context.h"
#include "core/list_io.h"
#include "core/query_governor.h"
#include "core/topk_algorithm.h"
#include "core/topk_buffer.h"

namespace topk {

/// TPUT (either tier) is summation-only; requires a set scorer.
inline Status ValidateTputScorer(const char* engine, const TopKQuery& query) {
  if (query.scorer->name() != "sum") {
    return Status::NotImplemented(
        engine, " thresholding (τ1/m) is defined for summation scoring; got '",
        query.scorer->name(), "'");
  }
  return Status::OK();
}

// Templated on the access policy (TPUT is summation-only, so there is no
// scorer dispatch): the default raw-list configuration inlines all three
// phases' access loops over the pool's flat rows. Phase 3's τ2 filter is
// one sequential sweep over the pool's slots: the filter runs once per
// query, so building a group index for it would cost more than the sweep.
template <typename IoT>
Status RunTputLoop(const AlgorithmOptions& options, const TopKQuery& query,
                   ExecutionContext* context, IoT io, TopKResult* result) {
  const size_t n = io.num_items();
  const size_t m = io.num_lists();
  const Score floor = options.score_floor;

  // Lower bounds (partial sums with floor-filled gaps) feed the pool's
  // threshold heap, whose k-th entry is exactly τ1/τ2 — no comparator set is
  // rebuilt between phases. No phase consults the group index, so it is
  // never maintained (eager_groups off).
  CandidatePool& pool =
      context->PreparePool(m, query.k, floor, /*eager_groups=*/false);
  const auto record = [&](size_t list_index, const AccessedEntry& entry) {
    const uint32_t slot = pool.FindOrInsert(entry.item);
    if (pool.SetSeen(slot, list_index, entry.score)) {
      Score sum = 0.0;
      const Score* row = pool.row(slot);
      for (size_t i = 0; i < m; ++i) {
        sum += row[i];
      }
      pool.OfferLower(slot, sum);
    }
  };

  QueryGovernor& governor = context->governor();
  Completion reason = Completion::kExact;
  // Cursor scores, maintained from the very first access so an anytime exit
  // can always bound the unseen items; lists not yet scanned are bounded by
  // their maximum (an uncounted, decision-free metadata read).
  std::vector<Score>& last_scores = context->last_scores();
  for (size_t i = 0; i < m; ++i) {
    last_scores[i] = io.MaxScore(i);
  }
  Position depth = std::min<Position>(static_cast<Position>(query.k),
                                      static_cast<Position>(n));

  // Anytime exit (deadline/budget trips): the threshold heap's lower bounds
  // are the best certified answer; the unreturned upper bound folds the
  // unseen-item bound (cursor-score sum) with the strongest non-heap
  // candidate. TPUT is summation-only, so SumUpperBound is the one
  // arithmetic.
  const auto anytime = [&](Completion why) -> Status {
    io.Flush();
    std::vector<ItemId>& winners = context->ClearedItems();
    pool.AppendHeapItems(&winners);
    Score kth = std::numeric_limits<Score>::infinity();
    result->items.reserve(winners.size());
    for (ItemId item : winners) {
      const Score lower = pool.lower(pool.FindSlot(item));
      kth = std::min(kth, lower);
      result->items.push_back(ResultItem{item, lower});
    }
    if (result->items.empty()) {
      kth = -std::numeric_limits<Score>::infinity();
    }
    Score upper = 0.0;
    for (size_t i = 0; i < m; ++i) {
      upper += last_scores[i];
    }
    for (uint32_t slot = 0; slot < pool.size(); ++slot) {
      if (!pool.InHeap(slot)) {
        upper = std::max(upper, SumUpperBound(pool, slot, last_scores));
      }
    }
    CertifyAnytime(why, kth, upper, result);
    result->stop_position = depth;
    return Status::OK();
  };
  // Permanent deaths break TPUT's drain guarantee (an undrained dead list
  // can hide arbitrarily strong unseen items), so any death surfaces as the
  // Unavailable marker and ExecuteInto fails over to NRA. RandomAlive is the
  // side-effect-free liveness test (a remote SortedAlive refills windows).
  // A local run finishes the phase over the surviving lists first; a remote
  // one fails over at the first lost list, since every further message
  // would only spend virtual time against the deadline.
  const auto list_lost = [&](size_t dead) -> Status {
    io.Flush();
    return Status::Unavailable(
        "TPUT: list ", dead,
        " died permanently; the τ1/m drain guarantee no longer covers its "
        "unseen entries");
  };
  const auto first_dead_list = [&]() -> size_t {
    for (size_t i = 0; i < m; ++i) {
      if (!io.RandomAlive(i)) {
        return i;
      }
    }
    return m;
  };

  // ---- Phase 1: top-k prefix of every list, read one list at a time. ----
  if constexpr (!IoT::kLocal) {
    // One round; sorted windows stop at the prefix depth.
    io.BeginRound();
    io.LimitSortedWindows(depth);
  }
  for (size_t i = 0; i < m; ++i) {
    for (Position p = 1; p <= depth; ++p) {
      if constexpr (IoT::kFaultAware) {
        if (!io.SortedAlive(i)) {
          if (!IoT::kLocal && !io.RandomAlive(i)) {
            return list_lost(i);
          }
          break;
        }
      }
      // Probe-cell prefetch pipelining — uncounted, decision-free; see
      // nra_loop.h.
      if (p + kPrefetchRowsAhead <= n) {
        if (const ItemId* ahead =
                io.UpcomingItem(i, p + kPrefetchRowsAhead)) {
          pool.PrefetchItem(*ahead);
        }
      }
      const AccessedEntry entry = io.Sorted(i, p);
      last_scores[i] = entry.score;
      record(i, entry);
      // Governance inside long prefix reads (k can be large).
      if ((p & 255u) == 0 &&
          (reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                    io.VirtualLatencyMs())) !=
              Completion::kExact) {
        return anytime(reason);
      }
    }
  }
  if constexpr (IoT::kFaultAware) {
    if (const size_t dead = first_dead_list(); dead < m) {
      return list_lost(dead);
    }
  }
  if ((reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                io.VirtualLatencyMs())) != Completion::kExact) {
    return anytime(reason);
  }
  // Phase 1 sees >= k distinct items (k rows of one list are distinct), so
  // the heap is full and its weakest entry is τ1.
  const Score tau1 = pool.KthLower();

  // ---- Phase 2: drain every list down to local score >= τ1/m. ----
  const Score threshold = tau1 / static_cast<Score>(m);
  std::vector<Position>& list_depths = context->ClearedPositions();
  list_depths.assign(m, depth);
  if constexpr (!IoT::kLocal) {
    // One round; refills become drains whose threshold stop runs at the
    // list's owner, one message per 16 windows of rows.
    io.BeginRound();
    io.DrainTo(threshold);
  }
  // The per-list scan continues from the shared phase-1 depth, where
  // phase 1 left every cursor score.
  for (size_t i = 0; i < m; ++i) {
    while (list_depths[i] < n && last_scores[i] >= threshold) {
      if constexpr (IoT::kFaultAware) {
        if (!io.SortedAlive(i)) {
          if (!IoT::kLocal && !io.RandomAlive(i)) {
            return list_lost(i);
          }
          break;  // dead, or (remote) the owner-side drain stopped
        }
      }
      const Position p = ++list_depths[i];
      if (p + kPrefetchRowsAhead <= n) {
        if (const ItemId* ahead =
                io.UpcomingItem(i, p + kPrefetchRowsAhead)) {
          pool.PrefetchItem(*ahead);
        }
      }
      const AccessedEntry entry = io.Sorted(i, p);
      record(i, entry);
      last_scores[i] = entry.score;
      depth = std::max(depth, entry.position);
      // Governance inside the drain (it can run deep into the lists).
      if ((p & 255u) == 0 &&
          (reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                    io.VirtualLatencyMs())) !=
              Completion::kExact) {
        return anytime(reason);
      }
    }
  }
  if constexpr (IoT::kFaultAware) {
    if (const size_t dead = first_dead_list(); dead < m) {
      return list_lost(dead);
    }
  }
  if ((reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                io.VirtualLatencyMs())) != Completion::kExact) {
    return anytime(reason);
  }
  const Score tau2 = pool.KthLower();

  // ---- Phase 3: resolve survivors exactly. ----
  // Upper bound: unknown lists contribute min(last seen score, threshold
  // ceiling) — after phase 2 any unseen score in list i is < max(last_scores
  // [i], threshold). Candidates below τ2 are pruned (strictly: a tie could
  // still belong to the deterministic top-k); items seen in no list at all
  // sum to strictly less than m * (τ1/m) = τ1 <= τ2, so the surviving
  // candidates contain the exact (score desc, item id asc) top-k.
  //
  // Folding the threshold ceiling into a capped copy of the depth scores
  // reduces the phase-3 bound to the shared SumUpperBound arithmetic — one
  // summation for every parity-sensitive call site.
  if constexpr (!IoT::kLocal) {
    io.BeginRound();
  }
  std::vector<Score>& capped_scores = context->bound_scores();
  for (size_t i = 0; i < m; ++i) {
    capped_scores[i] = std::min(last_scores[i], threshold);
  }
  std::vector<uint32_t>& survivors = context->ClearedSlots();
  for (uint32_t slot = 0; slot < pool.size(); ++slot) {
    if (SumUpperBound(pool, slot, capped_scores) >= tau2) {
      survivors.push_back(slot);
    }
  }

  if constexpr (!IoT::kLocal) {
    // Remote lists: one lookup batch per list covering every survivor's
    // unseen lists, issued before the resolution loop below consumes it in
    // the same order.
    for (uint32_t slot : survivors) {
      const uint64_t mask = pool.mask(slot);
      for (size_t i = 0; i < m; ++i) {
        if (!(mask >> i & 1)) {
          io.QueueRandom(i, pool.item_at(slot));
        }
      }
    }
    io.IssueRandom();
  }

  TopKBuffer& buffer = context->buffer();
  size_t resolved = 0;
  for (uint32_t slot : survivors) {
    const ItemId item = pool.item_at(slot);
    const Score* row = pool.row(slot);
    const uint64_t mask = pool.mask(slot);
    if constexpr (IoT::kFaultAware) {
      // Phase 3 needs random access to every unseen list of the survivor.
      for (size_t i = 0; i < m; ++i) {
        if (!(mask >> i & 1) && !io.RandomAlive(i)) {
          io.Flush();
          return Status::Unavailable(
              "TPUT: list ", i,
              " died permanently; random access is unavailable");
        }
      }
    }
    Score sum = 0.0;
    for (size_t i = 0; i < m; ++i) {
      sum += (mask >> i & 1) ? row[i] : io.Random(i, item).score;
    }
    buffer.Offer(item, sum);
    // Governance across the survivor resolutions (their count is unbounded
    // by k); the heap's lower bounds stay the certified anytime answer.
    if ((++resolved & 31u) == 0 &&
        (reason = governor.Charge(io.stats(), pool.LiveCandidateBytes(),
                                  io.VirtualLatencyMs())) !=
            Completion::kExact) {
      return anytime(reason);
    }
  }
  io.Flush();

  buffer.AppendSortedItems(&result->items);
  result->stop_position = depth;
  return Status::OK();
}

}  // namespace topk

#endif  // TOPK_CORE_TPUT_LOOP_H_
