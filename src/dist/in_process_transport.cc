// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "dist/in_process_transport.h"

namespace topk {

InProcessTransport InProcessTransport::PerListOwners(const Database& db,
                                                     size_t replicas) {
  InProcessTransport transport;
  for (size_t r = 0; r < replicas; ++r) {
    for (size_t i = 0; i < db.num_lists(); ++i) {
      transport.AddOwner(ListOwner(&db, {i}));
    }
  }
  return transport;
}

Status InProcessTransport::Call(size_t owner, const Request& request,
                                Reply* reply, CallResult* result) {
  *result = CallResult{};
  result->latency_ms = kBaseLatencyMs;
  if (owner >= owners_.size()) {
    return Status::Invalid("InProcessTransport: owner ", owner,
                           " outside [0, ", owners_.size(), ")");
  }
  EncodeRequest(request, &request_frame_);
  Status decoded = DecodeRequest(request_frame_, &served_request_);
  if (!decoded.ok()) {
    return decoded;
  }
  owners_[owner].Serve(served_request_, &reply_frame_);
  return DecodeReply(reply_frame_, reply);
}

}  // namespace topk
