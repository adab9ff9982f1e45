// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Pluggable message transport between the Coordinator and ListOwner shards.
//
// The transport is synchronous-with-virtual-time: Call() either delivers the
// request and fills the reply, or fails (dropped message, dead owner), and in
// both cases reports how long the exchange would have taken in `latency_ms`.
// The coordinator charges that virtual time against the QueryGovernor's
// deadline, so fault/latency behaviour is fully deterministic and replayable
// from a seed — the same discipline as FaultInjectingAccessEngine, one layer
// up. An eventual socket transport implements the same interface with real
// wall-clock latencies.
//
// Calls round-trip frames: a transport that reaches owners encodes each
// request and decodes each reply with the wire codec (dist/wire_codec.h), so
// Request::WireBytes() and Reply::WireBytes() are real frame lengths. Such a
// transport keeps scratch frames between calls, so one coordinator thread
// drives a transport at a time.

#ifndef TOPK_DIST_TRANSPORT_H_
#define TOPK_DIST_TRANSPORT_H_

#include <cstddef>
#include <cstdint>

#include "common/status.h"
#include "dist/messages.h"

namespace topk {

/// Per-call outcome metadata alongside the Status: the virtual latency to
/// charge against the query deadline, and how many extra (duplicate) copies
/// of the reply arrived — the coordinator counts them as received bytes and
/// dedupes them, exactly like a real at-least-once transport forces it to.
struct CallResult {
  double latency_ms = 0.0;
  uint32_t duplicate_replies = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  virtual size_t num_owners() const = 0;

  /// Delivers `request` to `owner` and fills `reply` (cleared first by the
  /// implementation) from the decoded reply frame; an owner's refusal
  /// (a coordinator bug) comes back as its Status. Returns Unavailable when
  /// the message is lost or the
  /// owner is dead; `result->latency_ms` is set on success AND failure (a
  /// lost message still costs the caller its RPC deadline).
  virtual Status Call(size_t owner, const Request& request, Reply* reply,
                      CallResult* result) = 0;
};

}  // namespace topk

#endif  // TOPK_DIST_TRANSPORT_H_
