// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/ta_algorithm.h"

#include <limits>
#include <type_traits>
#include <vector>

#include "core/list_io.h"
#include "core/topk_buffer.h"

namespace topk {
namespace {

// Templated on the access policy and the concrete scorer so the default
// configuration (raw list reads, summation scoring) inlines the whole row
// loop (TA has no trackers to devirtualize).
template <typename IoT, typename ScorerT>
Status RunTaLoop(const AlgorithmOptions& options, const Database& db,
                 const TopKQuery& query, ExecutionContext* context, IoT io,
                 TopKResult* result) {
  const size_t n = db.num_items();
  const size_t m = db.num_lists();
  const bool memoize = options.memoize_seen_items;
  const ScorerT& scorer = static_cast<const ScorerT&>(*query.scorer);

  TopKBuffer& buffer = context->buffer();
  std::vector<Score>& last_scores = context->last_scores();  // si per list
  std::vector<Score>& local = context->local_scores();
  // Overall scores already resolved; used only when memoization is on (the
  // paper's accounting model re-issues the random accesses, see Lemma 2).
  ScoreMemo* resolved = memoize ? &context->PrepareMemo(n) : nullptr;

  QueryGovernor& governor = context->governor();
  Completion reason = Completion::kExact;
  Score threshold = std::numeric_limits<Score>::infinity();

  Position depth = 0;
  while (depth < n) {
    ++depth;
    // Under fault injection a dead list's sorted scan is skipped (its
    // last_scores entry freezes, which keeps δ a sound upper bound on unseen
    // items: everything unseen still sits below every frozen cursor). A row
    // where no list is left alive can make no progress at all.
    [[maybe_unused]] bool row_progress = !IoT::kFaultAware;
    for (size_t i = 0; i < m; ++i) {
      if constexpr (IoT::kFaultAware) {
        if (!io.SortedAlive(i)) {
          continue;
        }
        row_progress = true;
      }
      const AccessedEntry entry = io.Sorted(i, depth);
      // Prefetch pipelining: the sorted prefix is known ahead of time, so
      // the mirror row (and memo entry) of the row this list will reach
      // kPrefetchRowsAhead iterations from now is requested here, while the
      // current (already prefetched) row is combined — the DRAM latency of a
      // cold random access overlaps ~kPrefetchRowsAhead * m rows of work
      // instead of stalling each row's combine loop.
      if (depth + kPrefetchRowsAhead <= n) {
        const ItemId ahead = db.list(i).items()[depth - 1 + kPrefetchRowsAhead];
        PrefetchItemRows(db, ahead, m);
        if (memoize) {
          resolved->Prefetch(ahead);
        }
      }
      last_scores[i] = entry.score;
      if (memoize && resolved->Contains(entry.item)) {
        buffer.Offer(entry.item, resolved->Get(entry.item));
        continue;
      }
      if constexpr (IoT::kFaultAware) {
        // TA cannot resolve an item without random access to every other
        // list; a dead list makes the whole algorithm unservable, so signal
        // ExecuteInto to fail over to NRA over the survivors.
        for (size_t j = 0; j < m; ++j) {
          if (j != i && !io.RandomAlive(j)) {
            io.Flush();
            return Status::Unavailable(
                "TA: list ", j,
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
          overall += (j == i) ? entry.score : io.Random(j, entry.item).score;
        }
      } else {
        for (size_t j = 0; j < m; ++j) {
          local[j] = (j == i) ? entry.score : io.Random(j, entry.item).score;
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
    threshold = scorer.Combine(last_scores.data(), m);
    if (options.collect_trace) {
      result->trace.push_back(StopRuleTrace{
          depth, threshold,
          buffer.full() ? buffer.KthScore()
                        : std::numeric_limits<double>::quiet_NaN(),
          buffer.size(), 0});
    }
    // Strictly above: a tie at δ could belong to an unseen item with a
    // smaller id (see TopKBuffer::HasKAbove). At depth == n everything has
    // been resolved and the loop ends with the exact deterministic top-k.
    if (buffer.HasKAbove(threshold)) {
      break;
    }
    // Governance: one predictable branch per row when nothing is armed.
    if ((reason = governor.Charge(io.stats(), 0, io.VirtualLatencyMs())) !=
        Completion::kExact) {
      break;
    }
  }
  io.Flush();

  buffer.AppendSortedItems(&result->items);
  result->stop_position = depth;
  if (reason != Completion::kExact) {
    // Anytime exit: every buffered score is exact (TA resolves at offer
    // time), so the weakest returned item is its own lower bound, and δ
    // bounds everything unseen; seen-but-unreturned items were rejected
    // against the k-th buffered score, which CertifyAnytime folds in.
    const Score kth = result->items.empty()
                          ? -std::numeric_limits<Score>::infinity()
                          : result->items.back().score;
    CertifyAnytime(reason, kth, threshold, result);
  }
  return Status::OK();
}

template <typename IoT>
Status DispatchTa(const AlgorithmOptions& options, const Database& db,
                  const TopKQuery& query, ExecutionContext* context, IoT io,
                  TopKResult* result) {
  if (dynamic_cast<const SumScorer*>(query.scorer) != nullptr) {
    return RunTaLoop<IoT, SumScorer>(options, db, query, context, io, result);
  }
  return RunTaLoop<IoT, Scorer>(options, db, query, context, io, result);
}

}  // namespace

Status TaAlgorithm::Run(const Database& db, const TopKQuery& query,
                        ExecutionContext* context, TopKResult* result) const {
  return RunWithLocalIo(db, options().audit_accesses, context, [&](auto io) {
    return DispatchTa(options(), db, query, context, io, result);
  });
}

}  // namespace topk
