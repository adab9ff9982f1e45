// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/nra_algorithm.h"

#include "core/candidate_bounds.h"
#include "core/list_io.h"
#include "core/nra_loop.h"

namespace topk {

Status NraAlgorithm::ValidateFor(const Database& db,
                                 const TopKQuery& query) const {
  (void)query;
  return ValidatePoolQuery("NRA", db, options().score_floor);
}

Status NraAlgorithm::Run(const Database& db, const TopKQuery& query,
                         ExecutionContext* context, TopKResult* result) const {
  if (options().audit_accesses) {
    return DispatchNra(options(), query, context,
                       EngineIo(&db, &context->engine()), result);
  }
  if (context->faults().armed()) {
    return DispatchNra(options(), query, context,
                       FaultIo(&db, &context->faults()), result);
  }
  return DispatchNra(options(), query, context,
                     RawListIo(&db, &context->engine()), result);
}

}  // namespace topk
