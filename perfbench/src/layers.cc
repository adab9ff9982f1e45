// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "layers.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "core/query_governor.h"
#include "core/topk_algorithm.h"
#include "core/topk_buffer.h"
#include "lists/access_engine.h"
#include "tracker/bitarray_tracker.h"

namespace perfbench {

using topk::AccessStats;
using topk::Database;
using topk::ItemId;
using topk::Position;

namespace {

// Replays stop at this many operations per layer: enough for a stable
// ns/op, and it bounds the traced run at n = 1M.
constexpr uint64_t kReplayCap = uint64_t{1} << 20;

// Every replayed read feeds this, so none of them is optimized away.
volatile double replay_sink = 0.0;

/// Nanoseconds per operation of each layer on one query's pattern, plus the
/// counters only a re-execution can show.
struct LayerCosts {
  double sorted_ns = 0, random_ns = 0, direct_ns = 0;
  double mark_ns = 0, offer_ns = 0, charge_ns = 0;
  double evaluations = 0;  // stop-rule evaluations (buffer family)
  double pool_peak = 0;    // candidate-pool peak (pool family)
};

/// How often each layer runs in one query, derived from its counters.
struct LayerCounts {
  double sorted = 0, random = 0, direct = 0, marks = 0, offers = 0,
         charges = 0;
};

LayerCounts CountsOf(const QuerySample& s) {
  LayerCounts c;
  c.sorted = static_cast<double>(s.stats.sorted_accesses);
  c.random = static_cast<double>(s.stats.random_accesses);
  c.direct = static_cast<double>(s.stats.direct_accesses);
  switch (s.spec.kind) {
    case AlgorithmKind::kBpa:  // every seen position is marked
      c.marks = c.sorted + c.random;
      c.offers = c.sorted;
      break;
    case AlgorithmKind::kBpa2:
      c.marks = c.direct + c.random;
      c.offers = c.direct;
      break;
    case AlgorithmKind::kTa:
      c.offers = c.sorted;
      break;
    default:
      break;
  }
  c.charges = static_cast<double>(s.depth);  // one per round boundary
  return c;
}

double ExplainedMs(const LayerCosts& cost, const LayerCounts& n) {
  return (n.sorted * cost.sorted_ns + n.random * cost.random_ns +
          n.direct * cost.direct_ns + n.marks * cost.mark_ns +
          n.offers * cost.offer_ns + n.charges * cost.charge_ns) *
         1e-6;
}

template <typename Body>
double NsPerOp(uint64_t count, Body&& body) {
  if (count == 0) return 0.0;
  const Clock::time_point t0 = Clock::now();
  body();
  return MsBetween(t0, Clock::now()) * 1e6 / static_cast<double>(count);
}

/// Replays the layers' public functions over `s`'s access pattern: sorted
/// rows from the top of every list (direct rows for BPA2), m-1 random
/// lookups per seen entry, tracker marks of every touched position, a
/// buffer offer per seen item, and one armed governor charge per row.
LayerCosts Replay(const Database& db, const topk::Scorer& scorer,
                  const QuerySample& s) {
  const size_t m = db.num_lists();
  const size_t n = db.num_items();
  const LayerCounts counts = CountsOf(s);
  const auto capped = [](double c) {
    return std::min<uint64_t>(static_cast<uint64_t>(c), kReplayCap);
  };
  const uint64_t sorted = std::min<uint64_t>(capped(counts.sorted), n * m);
  const uint64_t direct = std::min<uint64_t>(capped(counts.direct), n * m);
  const uint64_t random = capped(counts.random);

  // The seen entries in access order (untimed): row-major over the lists.
  const uint64_t seen = sorted != 0 ? sorted : direct;
  std::vector<ItemId> items(seen);
  for (uint64_t i = 0; i < seen; ++i) {
    items[i] = db.list(i % m).EntryAt(static_cast<Position>(i / m + 1)).item;
  }

  LayerCosts cost;
  double sink = 0.0;
  topk::AccessEngine engine(db);
  cost.sorted_ns = NsPerOp(sorted, [&] {
    for (uint64_t i = 0; i < sorted; ++i) {
      sink += engine.SortedAccess(i % m).score;
    }
  });
  const auto random_target = [&](uint64_t j, ItemId* item) {
    const uint64_t source = (j / (m - 1)) % seen;
    *item = items[source];
    return (source % m + 1 + j % (m - 1)) % m;
  };
  // Random accesses are replayed the way the algorithms' hot path
  // (RawListIo) makes them: from the item-major mirror rows, so the m-1
  // lookups of one seen item share its row.
  cost.random_ns = NsPerOp(seen == 0 || m < 2 ? 0 : random, [&] {
    for (uint64_t j = 0; j < random; ++j) {
      ItemId item;
      const size_t list = random_target(j, &item);
      sink += db.ItemScoresRow(item)[list] + db.ItemPositionsRow(item)[list];
    }
  });
  cost.direct_ns = NsPerOp(direct, [&] {
    for (uint64_t j = 0; j < direct; ++j) {
      sink += engine.DirectAccess(j % m, static_cast<Position>(j / m + 1))
                  .score;
    }
  });

  const uint64_t marks = capped(counts.marks);
  if (marks != 0 && seen != 0) {
    std::vector<std::pair<uint32_t, Position>> touched;
    touched.reserve(marks);
    for (uint64_t i = 0; i < seen && touched.size() < marks; ++i) {
      touched.emplace_back(i % m, static_cast<Position>(i / m + 1));
    }
    for (uint64_t j = 0; m > 1 && touched.size() < marks; ++j) {
      ItemId item;
      const size_t list = random_target(j, &item);
      touched.emplace_back(list, db.list(list).PositionOf(item));
    }
    std::vector<topk::BitArrayTracker> trackers(m, topk::BitArrayTracker(n));
    cost.mark_ns = NsPerOp(touched.size(), [&] {
      for (const auto& [list, pos] : touched) trackers[list].MarkSeen(pos);
    });
    for (const auto& tracker : trackers) sink += tracker.best_position();
  }

  const uint64_t offers = std::min<uint64_t>(capped(counts.offers), seen);
  if (offers != 0) {
    std::vector<topk::Score> overall(offers);
    for (uint64_t i = 0; i < offers; ++i) {
      overall[i] = scorer.Combine(db.ItemScoresRow(items[i]), m);
    }
    topk::TopKBuffer buffer(s.spec.k);
    cost.offer_ns = NsPerOp(offers, [&] {
      for (uint64_t i = 0; i < offers; ++i) buffer.Offer(items[i], overall[i]);
    });
    sink += static_cast<double>(buffer.size());
  }

  const uint64_t charges = capped(counts.charges);
  topk::QueryGovernor governor;
  topk::GovernorLimits limits;
  limits.deadline_ms = 1e9;  // armed, never trips: the serving configuration
  governor.Arm(limits);
  AccessStats running;
  cost.charge_ns = NsPerOp(charges, [&] {
    for (uint64_t i = 0; i < charges; ++i) {
      running.sorted_accesses += m;
      sink += static_cast<double>(governor.Charge(running, 0, 0.0));
    }
  });
  replay_sink = sink;
  return cost;
}

/// Re-executes `s` outside any timed window to read what only the run
/// itself shows: the stop-rule trace length and the pool peak.
void Reexecute(const Database& db, const topk::Scorer& scorer,
               const QuerySample& s, topk::ExecutionContext* context,
               LayerCosts* cost) {
  topk::AlgorithmOptions options;
  options.collect_trace = !IsPoolFamily(s.spec.kind);
  const auto algorithm = topk::MakeAlgorithm(s.spec.kind, options);
  topk::TopKResult result;
  const topk::TopKQuery query{s.spec.k, &scorer};
  if (!algorithm->ExecuteInto(db, query, context, &result).ok()) return;
  cost->evaluations = static_cast<double>(result.trace.size());
  if (IsPoolFamily(s.spec.kind)) {
    cost->pool_peak = static_cast<double>(context->pool().peak_size());
  }
}

}  // namespace

QuerySample SampleOf(const QuerySpec& spec, double ms,
                     const topk::TopKResult& result) {
  QuerySample s;
  s.spec = spec;
  s.ms = ms;
  s.stats = result.stats;
  s.depth = result.stop_position;
  s.exact = result.completion == topk::Completion::kExact;
  s.execution_cost = result.execution_cost;
  return s;
}

SingleNodeRunner::SingleNodeRunner(const Database* db) : db_(db) {
  for (const AlgorithmKind kind : topk::AllAlgorithmKinds()) {
    const size_t index = static_cast<size_t>(kind);
    if (slots_.size() <= index) slots_.resize(index + 1);
    slots_[index].algorithm = topk::MakeAlgorithm(kind);
    slots_[index].context = std::make_unique<topk::ExecutionContext>();
  }
}

QuerySample SingleNodeRunner::Run(const QuerySpec& spec,
                                  const topk::Scorer& scorer,
                                  std::string* error) {
  Slot& slot = slots_[static_cast<size_t>(spec.kind)];
  const topk::TopKQuery query{spec.k, &scorer};
  const Clock::time_point t0 = Clock::now();
  const topk::Status status =
      slot.algorithm->ExecuteInto(*db_, query, slot.context.get(), &result_);
  const double ms = MsBetween(t0, Clock::now());
  if (!status.ok()) *error = status.ToString();
  QuerySample sample = SampleOf(spec, ms, result_);
  if (IsPoolFamily(spec.kind)) {
    sample.pool_peak = slot.context->pool().peak_size();
  }
  return sample;
}

void AddSingleNodeLayers(const Database& db, const ScorerSet& scorers,
                         const std::vector<QuerySample>& samples,
                         Report* report) {
  // One probe per (algorithm, k, weighted?) cell, on its first exact sample.
  using Key = std::tuple<int, uint32_t, bool>;
  const auto key_of = [](const QuerySample& s) {
    return Key{static_cast<int>(s.spec.kind), s.spec.k, s.spec.scorer != 0};
  };
  std::map<Key, const QuerySample*> representative;
  for (const QuerySample& s : samples) {
    const QuerySample*& rep = representative[key_of(s)];
    if (rep == nullptr || (!rep->exact && s.exact)) rep = &s;
  }
  std::map<Key, LayerCosts> costs;
  topk::ExecutionContext context;
  double arena_mb = 0.0;
  for (const auto& [key, rep] : representative) {
    const topk::Scorer& scorer = scorers.at(rep->spec.scorer);
    LayerCosts cost = Replay(db, scorer, *rep);
    Reexecute(db, scorer, *rep, &context, &cost);
    arena_mb = std::max(arena_mb, static_cast<double>(
                                      context.pool().arena_bytes_reserved()) /
                                      (1024.0 * 1024.0));
    costs[key] = cost;
  }

  LayerCounts total;
  LayerCounts weighted;  // sum of count x ns, for count-weighted ns/op
  double depth = 0, degraded = 0;
  double buffer_family = 0, tracker_users = 0, pool_family = 0;
  double evaluations = 0, stop_residual = 0, pool_peak = 0, pool_residual = 0;
  for (const QuerySample& s : samples) {
    const LayerCosts& cost = costs[key_of(s)];
    const LayerCounts c = CountsOf(s);
    total.sorted += c.sorted;
    total.random += c.random;
    total.direct += c.direct;
    total.marks += c.marks;
    total.offers += c.offers;
    total.charges += c.charges;
    weighted.sorted += c.sorted * cost.sorted_ns;
    weighted.random += c.random * cost.random_ns;
    weighted.direct += c.direct * cost.direct_ns;
    weighted.marks += c.marks * cost.mark_ns;
    weighted.offers += c.offers * cost.offer_ns;
    weighted.charges += c.charges * cost.charge_ns;
    depth += static_cast<double>(s.depth);
    degraded += s.exact ? 0 : 1;
    const double residual = s.ms - ExplainedMs(cost, c);
    if (IsPoolFamily(s.spec.kind)) {
      pool_family += 1;
      pool_peak += cost.pool_peak;
      pool_residual += residual;
    } else {
      buffer_family += 1;
      evaluations += cost.evaluations;
      stop_residual += residual;
      tracker_users += c.marks > 0 ? 1 : 0;
    }
  }
  const double queries = std::max<double>(1.0, samples.size());
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  report->Set("lists.sorted_per_query", total.sorted / queries);
  report->Set("lists.random_per_query", total.random / queries);
  report->Set("lists.direct_per_query", total.direct / queries);
  report->Set("lists.sorted_ns", ratio(weighted.sorted, total.sorted));
  report->Set("lists.random_ns", ratio(weighted.random, total.random));
  report->Set("lists.direct_ns", ratio(weighted.direct, total.direct));
  report->Set("tracker.marks_per_query", ratio(total.marks, tracker_users));
  report->Set("tracker.mark_ns", ratio(weighted.marks, total.marks));
  report->Set("core.buffer.offers_per_query",
              ratio(total.offers, buffer_family));
  report->Set("core.buffer.offer_ns", ratio(weighted.offers, total.offers));
  report->Set("core.pool.peak_candidates", ratio(pool_peak, pool_family));
  report->Set("core.pool.arena_mb", arena_mb);
  report->Set("core.pool.residual_ms", ratio(pool_residual, pool_family));
  report->Set("core.stop.depth", depth / queries);
  report->Set("core.stop.evaluations", ratio(evaluations, buffer_family));
  report->Set("core.stop.residual_ms", ratio(stop_residual, buffer_family));
  report->Set("core.governor.charge_ns",
              ratio(weighted.charges, total.charges));
  report->Set("core.governor.degraded", degraded);
}

JsonObject SingleNodeWork(const std::vector<QuerySample>& samples) {
  uint64_t sorted = 0, random = 0, direct = 0, depth = 0, exact = 0;
  size_t pool_peak = 0;
  for (const QuerySample& s : samples) {
    sorted += s.stats.sorted_accesses;
    random += s.stats.random_accesses;
    direct += s.stats.direct_accesses;
    depth += s.depth;
    exact += s.exact ? 1 : 0;
    pool_peak = std::max(pool_peak, s.pool_peak);
  }
  return JsonObject()
      .Int("queries", samples.size())
      .Int("exact", exact)
      .Int("sorted_accesses", sorted)
      .Int("random_accesses", random)
      .Int("direct_accesses", direct)
      .Int("stop_depth_sum", depth)
      .Int("pool_peak_max", pool_peak);
}

}  // namespace perfbench
