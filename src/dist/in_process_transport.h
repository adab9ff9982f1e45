// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// InProcessTransport: the baseline Transport — owners live in the same
// process, and every Call() round-trips through the wire codec
// (dist/wire_codec.h) with a fixed small virtual latency per exchange: the
// request is encoded and decoded, the owner serves into an encoded reply
// frame, and that frame is decoded into the caller's Reply, so the bytes the
// coordinator counts are real frame lengths. It is the fault-free reference
// the FaultInjectingTransport decorates, and the parity baseline for the
// acceptance bar (fault-free distributed runs must be byte-identical to the
// single-node engine).
//
// The frames are scratch reused across calls, so a warmed Call() allocates
// nothing — and one transport serves one coordinator thread at a time.

#ifndef TOPK_DIST_IN_PROCESS_TRANSPORT_H_
#define TOPK_DIST_IN_PROCESS_TRANSPORT_H_

#include <cstddef>
#include <vector>

#include "dist/list_owner.h"
#include "dist/transport.h"
#include "dist/wire_codec.h"
#include "lists/database.h"

namespace topk {

class InProcessTransport : public Transport {
 public:
  /// Virtual per-exchange latency in milliseconds charged on every Call().
  /// Small but nonzero: an RPC is never free, and a nonzero base makes the
  /// coordinator's latency ring / hedging machinery exercise real numbers
  /// even before faults are layered on.
  static constexpr double kBaseLatencyMs = 0.05;

  InProcessTransport() = default;

  /// Adds an owner shard. Owners are addressed by insertion order.
  void AddOwner(ListOwner owner) { owners_.push_back(std::move(owner)); }

  /// Convenience: `replicas` owners per list of `db` — the paper's "each
  /// list at its own node" topology, replicated. Owners are laid out
  /// replica-major (owner r*m + i serves list i as replica r, see
  /// OwnerIndex), so `replicas = 1` (the default) is exactly the PR 8
  /// topology: owner i serves list i.
  static InProcessTransport PerListOwners(const Database& db,
                                          size_t replicas = 1);

  /// The owner index serving `list` as replica `replica` under the
  /// replica-major PerListOwners layout. Tools that target a specific
  /// replica (topk_cli --kill-replica, the bench grids) map through this so
  /// their targeting can never drift from the layout.
  static size_t OwnerIndex(size_t num_lists, size_t list, size_t replica) {
    return replica * num_lists + list;
  }

  size_t num_owners() const override { return owners_.size(); }

  Status Call(size_t owner, const Request& request, Reply* reply,
              CallResult* result) override;

 private:
  std::vector<ListOwner> owners_;
  // Call() scratch: the request frame, the request as the owner decodes
  // it, and the owner's reply frame.
  WireFrame request_frame_;
  Request served_request_;
  WireFrame reply_frame_;
};

}  // namespace topk

#endif  // TOPK_DIST_IN_PROCESS_TRANSPORT_H_
