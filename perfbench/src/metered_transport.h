// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// MeteredTransport: a Transport decorator that counts every Call's messages
// and WireBytes() by MessageType, applies a link model and, once timing is
// started, times every Call. The in-process transport charges a flat
// per-call latency, so without the link model the bytes a protocol moves
// never reach the coordinator's virtual clock; with it, each call's latency
// grows by (request + reply bytes) / bandwidth.
#ifndef PERFBENCH_METERED_TRANSPORT_H_
#define PERFBENCH_METERED_TRANSPORT_H_

#include <array>
#include <cstdint>

#include "common.h"
#include "dist/messages.h"
#include "dist/transport.h"

namespace perfbench {

inline constexpr size_t kMessageTypes = 5;  // kHello .. kProbe
inline constexpr const char* kMessageTypeNames[kMessageTypes] = {
    "hello", "sorted_window", "drain", "random_lookup", "probe"};

class MeteredTransport : public topk::Transport {
 public:
  struct PerType {
    uint64_t calls = 0;
    uint64_t bytes = 0;  // request bytes, plus reply bytes of answered calls
    uint64_t rows = 0;   // entries + lookups in answered replies
    double virtual_ms = 0.0;  // latency reported to the caller
    double wall_ms = 0.0;     // measured Call time (timed mode only)
  };

  /// \param bytes_per_ms link bandwidth; 0 leaves latencies untouched.
  MeteredTransport(topk::Transport* inner, double bytes_per_ms)
      : inner_(inner), bytes_per_ms_(bytes_per_ms) {}

  size_t num_owners() const override { return inner_->num_owners(); }

  topk::Status Call(size_t owner, const topk::Request& request,
                    topk::Reply* reply, topk::CallResult* result) override {
    const Clock::time_point t0 = timed_ ? Clock::now() : Clock::time_point{};
    const topk::Status status = inner_->Call(owner, request, reply, result);
    PerType& t = by_type_[static_cast<size_t>(request.type) % kMessageTypes];
    if (timed_) t.wall_ms += MsBetween(t0, Clock::now());
    uint64_t bytes = request.WireBytes();
    if (status.ok()) {
      bytes += reply->WireBytes();
      t.rows += reply->entries.size() + reply->lookups.size();
    }
    if (bytes_per_ms_ > 0.0) {
      result->latency_ms += static_cast<double>(bytes) / bytes_per_ms_;
    }
    ++t.calls;
    t.bytes += bytes;
    t.virtual_ms += result->latency_ms;
    return status;
  }

  /// Reads the clock around every Call from now on (the traced phase).
  void StartTiming() { timed_ = true; }

  const std::array<PerType, kMessageTypes>& by_type() const {
    return by_type_;
  }
  PerType Total() const {
    PerType total;
    for (const PerType& t : by_type_) {
      total.calls += t.calls;
      total.bytes += t.bytes;
      total.rows += t.rows;
      total.virtual_ms += t.virtual_ms;
      total.wall_ms += t.wall_ms;
    }
    return total;
  }

 private:
  topk::Transport* inner_;
  double bytes_per_ms_;
  bool timed_ = false;
  std::array<PerType, kMessageTypes> by_type_{};
};

}  // namespace perfbench

#endif  // PERFBENCH_METERED_TRANSPORT_H_
