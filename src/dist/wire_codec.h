// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// The wire codec of the coordinator/owner protocol: every Request and Reply
// the transports carry is encoded into a byte frame and decoded back, so the
// byte counters in DistStats are the lengths of real frames. All integers
// are little-endian.
//
//   frame    = u32 frame length (header included), u8 MessageType, body
//   request  = kHello, kProbe: no body
//              kSortedWindow: u32 list, u32 start, u32 max_entries
//              kDrain: the window fields, then f64 threshold
//              kRandomLookup: u32 list, u32 count, count x u32 item
//   reply    = u8 StatusCode, then for kOk the type's body, else
//              u32 message length and the status message
//              kHello: u32 count, count x (u32 list, u32 n, f64 max, f64 min)
//              kSortedWindow, kDrain: u8 drained_to_threshold, u32 rows and,
//                when rows > 0, u64 key of the first row and the row blocks
//              kRandomLookup: u32 count, count x (f64 score, u32 position)
//              kProbe: no body
//
// Rows (windows and drains) go in blocks of kBlockRows, packed losslessly by
// frame of reference (Lemire & Boytsov, "Decoding billions of integers per
// second through vectorization", SPE 2015). Each score becomes an
// order-preserving u64 key — the sign bit of a non-negative score is set,
// every bit of a negative one is flipped — so descending rows have
// non-increasing keys, and each row stores its key delta `prev - key`
// (mod 2^64, the first row's delta is 0). A block is one byte of widths
// (delta bytes 0..8 in the low nibble, id bytes 0..4 in the high one, each
// the widest value of the block), then the block's deltas and then its item
// ids, each at that whole-byte width. Any scores round-trip bit for bit (NaN
// payloads, ±0.0, ±inf, denormals); rows that are not descending still
// round-trip, at wider deltas. Lookups and requests stay fixed-width raw:
// they are short, and raw values decode at the cost of a copy.
//
// Decoding checks every length against the frame before it reads or sizes
// anything: a truncated or corrupted frame decodes to a non-OK Status or to
// some valid message, never to an out-of-bounds read or a huge allocation.
// Encoders overwrite their frame and decoders their message in place, so a
// warmed frame or message is reused without allocating.

#ifndef TOPK_DIST_WIRE_CODEC_H_
#define TOPK_DIST_WIRE_CODEC_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/status.h"
#include "dist/messages.h"
#include "lists/types.h"

namespace topk {

/// One encoded message, reused across calls.
using WireFrame = std::vector<uint8_t>;

/// Rows per packed block of a window or drain reply.
inline constexpr size_t kBlockRows = 128;

void EncodeRequest(const Request& request, WireFrame* frame);
/// Fills every field of `request`; the fields its type does not carry get
/// their defaults.
Status DecodeRequest(std::span<const uint8_t> frame, Request* request);

/// Encodes `reply` as an OK reply to a `type` request: the type's fields of
/// `reply` are encoded, the others ignored.
void EncodeReply(MessageType type, const Reply& reply, WireFrame* frame);

/// An owner's refusal of a `type` request: `status` (not OK) travels in
/// the frame and is what DecodeReply returns.
void EncodeErrorReply(MessageType type, const Status& status,
                      WireFrame* frame);

/// kSortedWindow / kDrain reply of `count` rows read from parallel arrays
/// (a SortedList's items() and scores() from the first row served).
void EncodeRowsReply(MessageType type, const ItemId* items,
                     const Score* scores, size_t count,
                     bool drained_to_threshold, WireFrame* frame);

/// kHello reply of `count` catalog entries, `catalog_at(i)` the i-th.
template <typename CatalogAt>
void EncodeCatalogReply(size_t count, const CatalogAt& catalog_at,
                        WireFrame* frame);

/// kRandomLookup reply of `count` answers, `lookup_at(i)` the i-th.
template <typename LookupAt>
void EncodeLookupReply(size_t count, const LookupAt& lookup_at,
                       WireFrame* frame);

/// kProbe reply: the header alone.
void EncodeProbeReply(WireFrame* frame);

/// Decodes a reply frame into `reply` (cleared first) and returns the
/// owner's status — OK, or the status of an error reply — or Invalid for a
/// malformed frame. On OK, reply->WireBytes() is the frame's length.
Status DecodeReply(std::span<const uint8_t> frame, Reply* reply);

// --- implementation of the templates ---

namespace wire_internal {

static_assert(std::endian::native == std::endian::little,
              "the wire codec copies little-endian integers as they are");

inline constexpr size_t kReplyHeaderBytes = 6;  // length, type, status code
inline constexpr size_t kCatalogBytes = 24;
inline constexpr size_t kLookupBytes = 12;

template <typename T>
uint8_t* Put(uint8_t* out, T value) {
  std::memcpy(out, &value, sizeof(T));
  return out + sizeof(T);
}

/// Sizes `frame` to an OK reply of `body_bytes` and writes its header;
/// returns where the body starts.
uint8_t* BeginOkReply(MessageType type, size_t body_bytes, WireFrame* frame);

}  // namespace wire_internal

template <typename CatalogAt>
void EncodeCatalogReply(size_t count, const CatalogAt& catalog_at,
                        WireFrame* frame) {
  using namespace wire_internal;
  uint8_t* out = BeginOkReply(MessageType::kHello,
                              sizeof(uint32_t) + count * kCatalogBytes, frame);
  out = Put(out, static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    const ListCatalog entry = catalog_at(i);
    out = Put(out, entry.list_index);
    out = Put(out, entry.num_items);
    out = Put(out, entry.max_score);
    out = Put(out, entry.min_score);
  }
}

template <typename LookupAt>
void EncodeLookupReply(size_t count, const LookupAt& lookup_at,
                       WireFrame* frame) {
  using namespace wire_internal;
  uint8_t* out = BeginOkReply(MessageType::kRandomLookup,
                              sizeof(uint32_t) + count * kLookupBytes, frame);
  out = Put(out, static_cast<uint32_t>(count));
  for (size_t i = 0; i < count; ++i) {
    const ItemLookup lookup = lookup_at(i);
    out = Put(out, lookup.score);
    out = Put(out, lookup.position);
  }
}

}  // namespace topk

#endif  // TOPK_DIST_WIRE_CODEC_H_
