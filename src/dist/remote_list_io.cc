// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "dist/remote_list_io.h"

#include <algorithm>

#include "core/candidate_bounds.h"
#include "dist/coordinator.h"

namespace topk {
namespace {

// A kDrain asks for this many windows of rows. The owner's threshold stop
// ends a drain at the same row whatever the cap, so a larger cap ships no
// extra rows; it only cuts the messages (each paying the transport's base
// latency and its own chance of a delay) that TPUT's phase 2 costs. The cap
// also bounds how long one reply takes, and a reply that outlasts the hedge
// timer is sent twice. Packed by the wire codec at ~8 bytes a row, a full
// 16-window reply at the default window_rows (1024 rows, ~8.2 KB) takes
// ~0.71 ms on a 100 Mbit/s link with 0.05 ms base latency, under the
// default 1 ms hedge_floor_ms, and drains keep their own hedge timer, so a
// drain is not hedged in duplicate for being long.
constexpr uint64_t kDrainWindows = 16;

}  // namespace

void RemoteListIo::Buffers::Reset(size_t m, size_t n, bool bpa) {
  lists.resize(m);
  for (List& list : lists) {
    list.queued.clear();  // a run that ended early may have left some
    list.alive = true;
    list.lane_ms = 0.0;
  }
  num_items = static_cast<Position>(n);
  RestartScans();
  record_seen = bpa;
  if (bpa) {
    seen.resize(m);
    for (ScoreMemo& memo : seen) {
      memo.Reset(n + 1);
    }
    requested.assign((n + 63) / 64, 0);
  }
  access = AccessStats{};
  error = Status::OK();
}

void RemoteListIo::Buffers::RestartScans() {
  for (List& list : lists) {
    list.next = 1;
    list.window_end = 0;  // refills restart at position 1 too
  }
  horizon = num_items;
  draining = false;
  drain_threshold = 0.0;
}

uint32_t RemoteListIo::DeadLists() const {
  uint32_t dead = 0;
  for (const Buffers::List& list : buffers_->lists) {
    dead += list.alive ? 0 : 1;
  }
  return dead;
}

double RemoteListIo::VirtualLatencyMs() const {
  return coordinator_->stats_.virtual_ms;
}

Score RemoteListIo::MaxScore(size_t list_index) const {
  return coordinator_->max_score_[list_index];
}

double RemoteListIo::SummationMargin(double score_floor) const {
  return SummationErrorMargin(
      num_lists(), [this](size_t i) { return coordinator_->max_score_[i]; },
      [this](size_t i) { return coordinator_->min_score_[i]; }, score_floor);
}

Position RemoteListIo::BufferedThrough() const {
  Position through = 0;  // a live list buffers at least position 1
  for (const Buffers::List& list : buffers_->lists) {
    if (list.alive && (through == 0 || list.window_end - 1 < through)) {
      through = list.window_end - 1;
    }
  }
  return through;
}

void RemoteListIo::BeginRound() {
  round_open_ = true;
  const double start_ms = coordinator_->stats_.virtual_ms;
  for (Buffers::List& list : buffers_->lists) {
    list.lane_ms = start_ms;
  }
}

void RemoteListIo::IssueRandom() {
  BeginRound();
  for (size_t j = 0; j < num_lists(); ++j) {
    Buffers::List& list = buffers_->lists[j];
    list.issued.swap(list.queued);
    list.queued.clear();
    list.lookups.clear();
    list.popped = 0;
    if (list.issued.empty() || !RandomAlive(j)) {
      continue;
    }
    Request& request = coordinator_->request_;
    request.type = MessageType::kRandomLookup;
    request.list_index = static_cast<uint32_t>(j);
    request.items = list.issued;
    if (Call(j)) {
      list.lookups.swap(coordinator_->reply_.lookups);
    }
  }
}

bool RemoteListIo::Refill(size_t list_index) {
  Buffers::List& list = buffers_->lists[list_index];
  Request& request = coordinator_->request_;
  request.list_index = static_cast<uint32_t>(list_index);
  request.start = list.next;
  request.items.clear();
  const uint64_t window_rows = coordinator_->options_.window_rows;
  if (buffers_->draining) {
    request.type = MessageType::kDrain;
    request.max_entries = static_cast<uint32_t>(std::min<uint64_t>(
        kDrainWindows * window_rows, buffers_->num_items - list.next + 1));
    request.threshold = buffers_->drain_threshold;
  } else {
    request.type = MessageType::kSortedWindow;
    request.max_entries = static_cast<uint32_t>(
        std::min<uint64_t>(window_rows, buffers_->horizon - list.next + 1));
  }
  if (!Call(list_index)) {
    return false;
  }
  list.window.swap(coordinator_->reply_.entries);
  list.window_base = list.next;
  list.window_end = list.next + static_cast<Position>(list.window.size());
  return !list.window.empty();
}

bool RemoteListIo::Call(size_t list_index) {
  DistStats& stats = coordinator_->stats_;
  if (round_open_) {
    round_open_ = false;
    ++stats.rounds;
  }
  // The RPC runs on its list's lane: everything ListRpc charges to
  // virtual_ms (latency, backoff, hedges, probes) and every breaker window
  // it reads is the lane's time. The round then ends at its longest lane.
  double& lane_ms = buffers_->lists[list_index].lane_ms;
  const double round_end_ms = stats.virtual_ms;
  stats.virtual_ms = lane_ms;
  const uint32_t deaths = stats.owner_deaths;
  const Status status = coordinator_->ListRpc(
      list_index, coordinator_->request_, &coordinator_->reply_);
  lane_ms = stats.virtual_ms;
  stats.virtual_ms = std::max(round_end_ms, lane_ms);
  if (!status.ok() && !status.IsUnavailable() && buffers_->error.ok()) {
    buffers_->error = status;
  }
  if (stats.owner_deaths != deaths || !buffers_->error.ok()) {
    for (size_t i = 0; i < num_lists(); ++i) {
      buffers_->lists[i].alive =
          buffers_->error.ok() && coordinator_->ListAlive(i);
    }
  }
  return status.ok();
}

}  // namespace topk
