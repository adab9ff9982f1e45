// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "dist/list_owner.h"

#include <algorithm>
#include <utility>

namespace topk {

ListOwner::ListOwner(const Database* db, std::vector<size_t> lists)
    : db_(db), lists_(std::move(lists)) {}

void ListOwner::Serve(const Request& request, WireFrame* reply) const {
  const Status status = Answer(request, reply);
  if (!status.ok()) {
    EncodeErrorReply(request.type, status, reply);
  }
}

Status ListOwner::Answer(const Request& request, WireFrame* reply) const {
  switch (request.type) {
    case MessageType::kHello:
      return ServeHello(reply);
    case MessageType::kSortedWindow:
      return ServeWindow(request, reply);
    case MessageType::kDrain:
      return ServeDrain(request, reply);
    case MessageType::kRandomLookup:
      return ServeLookup(request, reply);
    case MessageType::kProbe:
      // Liveness check: an empty OK reply is the whole answer. The health
      // tracker only needs to know whether the owner responds.
      EncodeProbeReply(reply);
      return Status::OK();
  }
  return Status::Invalid("ListOwner: unknown message type ",
                         static_cast<int>(request.type));
}

Status ListOwner::CheckOwnership(uint32_t list_index) const {
  for (size_t owned : lists_) {
    if (owned == list_index) return Status::OK();
  }
  return Status::Invalid("ListOwner: list ", list_index,
                         " is not served by this owner");
}

Status ListOwner::ServeHello(WireFrame* reply) const {
  for (size_t index : lists_) {
    if (db_->list(index).empty()) {
      return Status::Invalid("ListOwner: list ", index, " is empty");
    }
  }
  EncodeCatalogReply(
      lists_.size(),
      [this](size_t i) {
        const SortedList& list = db_->list(lists_[i]);
        return ListCatalog{static_cast<uint32_t>(lists_[i]),
                           static_cast<uint32_t>(list.size()),
                           list.MaxScore(), list.MinScore()};
      },
      reply);
  return Status::OK();
}

Status ListOwner::ServeWindow(const Request& request, WireFrame* reply) const {
  Status owned = CheckOwnership(request.list_index);
  if (!owned.ok()) return owned;
  const SortedList& list = db_->list(request.list_index);
  const size_t n = list.size();
  if (request.start < 1 || request.start > n) {
    return Status::OutOfRange("ListOwner: window start ", request.start,
                              " outside [1, ", n, "] on list ",
                              request.list_index);
  }
  const size_t first = request.start - 1;
  const size_t count = std::min<size_t>(request.max_entries, n - first);
  EncodeRowsReply(MessageType::kSortedWindow, list.items().data() + first,
                  list.scores().data() + first, count,
                  /*drained_to_threshold=*/false, reply);
  return Status::OK();
}

Status ListOwner::ServeDrain(const Request& request, WireFrame* reply) const {
  Status owned = CheckOwnership(request.list_index);
  if (!owned.ok()) return owned;
  const SortedList& list = db_->list(request.list_index);
  const size_t n = list.size();
  if (request.start < 1 || request.start > n) {
    return Status::OutOfRange("ListOwner: drain start ", request.start,
                              " outside [1, ", n, "] on list ",
                              request.list_index);
  }
  // TPUT phase 2 contract: serve descending rows from `start` and stop AFTER
  // the first entry whose score falls below the threshold — that entry is
  // included, so the coordinator's cursor score ends strictly below the
  // threshold exactly as a local sorted scan's would. max_entries caps the
  // batch; the coordinator re-drains from the new cursor when a full batch
  // ends while still at/above the threshold.
  const size_t first = request.start - 1;
  const size_t limit = std::min<size_t>(request.max_entries, n - first);
  const Score* scores = list.scores().data() + first;
  size_t count = 0;
  bool drained = false;
  while (count < limit && !drained) {
    drained = scores[count++] < request.threshold;
  }
  EncodeRowsReply(MessageType::kDrain, list.items().data() + first, scores,
                  count, drained, reply);
  return Status::OK();
}

Status ListOwner::ServeLookup(const Request& request, WireFrame* reply) const {
  Status owned = CheckOwnership(request.list_index);
  if (!owned.ok()) return owned;
  const SortedList& list = db_->list(request.list_index);
  const size_t n = list.size();
  for (ItemId item : request.items) {
    if (item >= n) {
      return Status::KeyError("ListOwner: item ", item, " outside [0, ", n,
                              ") on list ", request.list_index);
    }
  }
  EncodeLookupReply(
      request.items.size(),
      [&](size_t i) { return list.Lookup(request.items[i]); }, reply);
  return Status::OK();
}

}  // namespace topk
