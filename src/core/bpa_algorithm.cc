// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/bpa_algorithm.h"

#include "core/bpa_loop.h"
#include "core/list_io.h"

namespace topk {

Status BpaAlgorithm::Run(const Database& db, const TopKQuery& query,
                         ExecutionContext* context, TopKResult* result) const {
  context->PrepareTrackers(options().tracker, db.num_items(), db.num_lists());
  return RunWithLocalIo(db, options().audit_accesses, context, [&](auto io) {
    return DispatchBpa(options(), query, context, io, result);
  });
}

}  // namespace topk
