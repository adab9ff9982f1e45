// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Message set of the distributed layer (paper, Section 1's middleware setting
// distributed across per-list owner nodes): the coordinator speaks four
// request kinds, plus a health probe, to a ListOwner shard and counts every
// exchange in wire bytes.
//
// The structs are the decoded form of the frames the transports carry:
// every request and reply is encoded by the wire codec (dist/wire_codec.h)
// and decoded on the other side, so WireBytes() is the length of a real
// frame — what a socket transport moves. That is the metric the distributed
// top-k literature optimizes (cf. TPUT): message and byte counts per query,
// not local access counts.

#ifndef TOPK_DIST_MESSAGES_H_
#define TOPK_DIST_MESSAGES_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lists/types.h"

namespace topk {

/// The five RPCs of the coordinator/owner protocol.
enum class MessageType : uint8_t {
  kHello = 0,         ///< catalog handshake: which lists, n, score range
  kSortedWindow = 1,  ///< batched sorted access: `count` rows from `start`
  kDrain = 2,         ///< TPUT phase 2: rows from `start` down to `threshold`
  kRandomLookup = 3,  ///< batched random access for a list's scores/positions
  kProbe = 4,         ///< health probe: empty OK reply proves liveness
};
inline constexpr size_t kMessageTypeCount = 5;

/// One list advertised by an owner's Hello reply: enough catalog metadata for
/// the coordinator to derive the score floor, seed its cursor bounds
/// (max_score) and freeze sound dead-list bounds without ever touching the
/// Database directly.
struct ListCatalog {
  uint32_t list_index = 0;
  uint32_t num_items = 0;
  Score max_score = 0.0;
  Score min_score = 0.0;
};

/// A coordinator→owner request. One flat struct for all four kinds keeps the
/// transport signature simple; unused fields are ignored by the owner.
struct Request {
  MessageType type = MessageType::kHello;
  uint32_t list_index = 0;

  /// First 1-based position served (kSortedWindow, kDrain).
  Position start = 1;

  /// Maximum entries in the reply (kSortedWindow, kDrain); batching cap.
  uint32_t max_entries = 0;

  /// Drain floor: the owner stops after the first entry whose local score
  /// falls below it (kDrain; TPUT's τ1/m).
  Score threshold = 0.0;

  /// Batched random-access items (kRandomLookup).
  std::vector<ItemId> items;

  /// Length of this request's encoded frame (computed from its fields;
  /// defined beside the encoder in wire_codec.cc).
  size_t WireBytes() const;
};

/// An owner→coordinator reply, as decoded from its frame. Which vectors are
/// filled depends on the request type; Clear() makes one reply reusable
/// across calls without releasing capacity.
struct Reply {
  /// kHello: the owner's lists.
  std::vector<ListCatalog> catalog;

  /// kSortedWindow / kDrain: consecutive rows in descending-score order,
  /// starting at Request::start.
  std::vector<ListEntry> entries;

  /// kRandomLookup: one answer per requested item, in request order.
  std::vector<ItemLookup> lookups;

  /// kDrain: true when the drain stopped because an entry fell below the
  /// threshold (that entry is included — the coordinator's cursor score must
  /// end below the threshold exactly like a local sorted scan's would);
  /// false when it stopped at max_entries or the end of the list.
  bool drained_to_threshold = false;

  /// Length of the frame this reply was decoded from (set by DecodeReply,
  /// so reading it is O(1)); 0 for a reply that never crossed the wire.
  size_t frame_bytes = 0;

  size_t WireBytes() const { return frame_bytes; }

  void Clear() {
    catalog.clear();
    entries.clear();
    lookups.clear();
    drained_to_threshold = false;
    frame_bytes = 0;
  }
};

}  // namespace topk

#endif  // TOPK_DIST_MESSAGES_H_
