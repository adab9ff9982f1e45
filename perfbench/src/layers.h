// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Per-layer accounting of single-node queries, timed from outside the
// program. The layers inside one query (list storage, the best-position
// tracker, the top-k buffer, the governor) are priced by replaying their
// public functions over the query's own access pattern at the workload's n,
// then scaled by that query's counters; whatever of the measured query time
// they do not explain is the candidate-pool / stop-rule residual.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/execution_context.h"
#include "core/topk_result.h"
#include "lists/access_stats.h"
#include "lists/database.h"

namespace perfbench {

/// One single-node query as the benchmark observed it.
struct QuerySample {
  QuerySpec spec;
  double ms = 0.0;  // measured query time (ExecuteInto, or server service)
  topk::AccessStats stats;
  topk::Position depth = 0;
  bool exact = true;
  size_t pool_peak = 0;  // candidate-pool peak, when the caller can see it
  double execution_cost = 0.0;  // the paper's as*cs + (ar+ad)*cr
};

/// One warmed ExecutionContext and algorithm instance per algorithm, run
/// through the public ExecuteInto entry point.
class SingleNodeRunner {
 public:
  explicit SingleNodeRunner(const topk::Database* db);
  /// Runs `spec` and returns its sample; `ms` is the ExecuteInto wall time.
  /// A failed call (never expected) reports its status in `error`.
  QuerySample Run(const QuerySpec& spec, const topk::Scorer& scorer,
                  std::string* error);
  /// The result of the last Run.
  const topk::TopKResult& last() const { return result_; }

 private:
  struct Slot {
    std::unique_ptr<topk::TopKAlgorithm> algorithm;
    std::unique_ptr<topk::ExecutionContext> context;
  };
  const topk::Database* db_;
  std::vector<Slot> slots_;  // indexed by AlgorithmKind
  topk::TopKResult result_;
};

QuerySample SampleOf(const QuerySpec& spec, double ms,
                     const topk::TopKResult& result);

/// Fills the lists.*, tracker.*, core.buffer.*, core.pool.*, core.stop.* and
/// core.governor.* per-layer metrics from `samples`.
void AddSingleNodeLayers(const topk::Database& db, const ScorerSet& scorers,
                         const std::vector<QuerySample>& samples,
                         Report* report);

/// Deterministic work counters of a fixed query set: accesses by kind, stop
/// depths and the pool peak. They repeat exactly across runs of one build.
JsonObject SingleNodeWork(const std::vector<QuerySample>& samples);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
