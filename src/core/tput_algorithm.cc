// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "core/tput_algorithm.h"

#include "common/macros.h"
#include "core/candidate_bounds.h"
#include "core/list_io.h"
#include "core/tput_loop.h"

namespace topk {

Status TputAlgorithm::ValidateFor(const Database& db,
                                  const TopKQuery& query) const {
  TOPK_RETURN_NOT_OK(ValidateTputScorer("TPUT", query));
  return ValidatePoolQuery("TPUT", db, options().score_floor);
}

Status TputAlgorithm::Run(const Database& db, const TopKQuery& query,
                          ExecutionContext* context,
                          TopKResult* result) const {
  return RunWithLocalIo(db, options().audit_accesses, context, [&](auto io) {
    return RunTputLoop(options(), query, context, io, result);
  });
}

}  // namespace topk
