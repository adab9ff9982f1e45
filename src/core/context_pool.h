// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// ContextPool: a thread-safe, grow-only pool of reusable ExecutionContexts
// with stable addresses. TopKServer hands out one context per worker slot;
// the pool owns the contexts so they stay warm across the server's lifetime.
//
// Thread-safety contract: Get() may be called from any thread (growth is
// mutex-protected), but the *returned context* is single-owner scratch — two
// threads must never execute through the same slot concurrently. Callers
// enforce that by construction: each worker uses exactly its own slot index.

#ifndef TOPK_CORE_CONTEXT_POOL_H_
#define TOPK_CORE_CONTEXT_POOL_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "core/execution_context.h"

namespace topk {

/// Grow-only pool of per-worker ExecutionContexts.
class ContextPool {
 public:
  ContextPool() = default;
  ContextPool(const ContextPool&) = delete;
  ContextPool& operator=(const ContextPool&) = delete;

  /// The context of worker slot `slot`, created on first use and kept warm
  /// afterwards. Safe to call from concurrent workers; the address stays
  /// stable for the pool's lifetime (unique_ptr-owned storage).
  ExecutionContext* Get(size_t slot) {
    std::lock_guard<std::mutex> lock(mu_);
    while (contexts_.size() <= slot) {
      contexts_.push_back(std::make_unique<ExecutionContext>());
    }
    return contexts_[slot].get();
  }

  /// Number of contexts created so far.
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return contexts_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<ExecutionContext>> contexts_;
};

}  // namespace topk

#endif  // TOPK_CORE_CONTEXT_POOL_H_
