// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/bpa_algorithm.h"

#include "core/bpa_loop.h"
#include "core/list_io.h"

namespace topk {

Status BpaAlgorithm::Run(const Database& db, const TopKQuery& query,
                         ExecutionContext* context, TopKResult* result) const {
  context->PrepareTrackers(options().tracker, db.num_items(), db.num_lists());
  if (options().audit_accesses) {
    return DispatchBpa(options(), query, context,
                       EngineIo(&db, &context->engine()), result);
  }
  if (context->faults().armed()) {
    return DispatchBpa(options(), query, context,
                       FaultIo(&db, &context->faults()), result);
  }
  return DispatchBpa(options(), query, context,
                     RawListIo(&db, &context->engine()), result);
}

}  // namespace topk
