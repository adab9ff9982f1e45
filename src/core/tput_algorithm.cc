// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/tput_algorithm.h"

#include "core/candidate_bounds.h"
#include "core/list_io.h"
#include "core/tput_loop.h"

namespace topk {

Status TputAlgorithm::ValidateFor(const Database& db,
                                  const TopKQuery& query) const {
  if (query.scorer->name() != "sum") {
    return Status::NotImplemented(
        "TPUT thresholding (τ1/m) is defined for summation scoring; got '",
        query.scorer->name(), "'");
  }
  return ValidatePoolQuery("TPUT", db, options().score_floor);
}

Status TputAlgorithm::Run(const Database& db, const TopKQuery& query,
                          ExecutionContext* context,
                          TopKResult* result) const {
  if (options().audit_accesses) {
    return RunTputLoop(options(), query, context,
                       EngineIo(&db, &context->engine()), result);
  }
  if (context->faults().armed()) {
    return RunTputLoop(options(), query, context,
                       FaultIo(&db, &context->faults()), result);
  }
  return RunTputLoop(options(), query, context,
                     RawListIo(&db, &context->engine()), result);
}

}  // namespace topk
