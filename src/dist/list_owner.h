// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// ListOwner: one shard of the paper's distributed setting. It owns one or
// more of the database's m sorted lists and answers the coordinator's five
// request kinds (catalog handshake, batched sorted-access windows, TPUT
// drains, batched random-access lookups, health probes) against its lists
// only.
//
// The owner is stateless between requests — every cursor lives at the
// coordinator — so an owner can be retried, hedged, restarted, or REPLACED BY
// A REPLICA without any session state to reconcile: two owners constructed
// over the same immutable lists answer every request byte-identically, which
// is what makes the coordinator's mid-query replica failover invisible to
// the algorithms. It shares the process's Database here (the in-process
// transport setting); a real deployment would give each owner its own list
// storage, and nothing in the interface assumes otherwise.
//
// Replies are written straight into an encoded frame (dist/wire_codec.h):
// windows and drains are packed from the list's items() and scores() arrays,
// lookups from its by-item index, with no decoded reply in between.

#ifndef TOPK_DIST_LIST_OWNER_H_
#define TOPK_DIST_LIST_OWNER_H_

#include <cstddef>
#include <vector>

#include "common/status.h"
#include "dist/messages.h"
#include "dist/wire_codec.h"
#include "lists/database.h"

namespace topk {

class ListOwner {
 public:
  /// An owner serving `lists` (0-based list indexes) of `db`. The database
  /// must outlive the owner.
  ListOwner(const Database* db, std::vector<size_t> lists);

  const std::vector<size_t>& lists() const { return lists_; }

  /// Serves one request into `reply`, an encoded reply frame overwritten in
  /// place. Requests that name a list this owner does not hold, or
  /// positions outside [1, n], are answered with an error frame carrying
  /// Status::Invalid / OutOfRange / KeyError — coordinator bugs, not faults.
  void Serve(const Request& request, WireFrame* reply) const;

 private:
  /// Encodes the OK reply into `reply`, or returns why it cannot.
  Status Answer(const Request& request, WireFrame* reply) const;
  Status ServeHello(WireFrame* reply) const;
  Status ServeWindow(const Request& request, WireFrame* reply) const;
  Status ServeDrain(const Request& request, WireFrame* reply) const;
  Status ServeLookup(const Request& request, WireFrame* reply) const;

  /// Resolves request.list_index against lists_, or fails.
  Status CheckOwnership(uint32_t list_index) const;

  const Database* db_;
  std::vector<size_t> lists_;
};

}  // namespace topk

#endif  // TOPK_DIST_LIST_OWNER_H_
