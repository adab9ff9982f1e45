// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "dist/wire_codec.h"

#include <algorithm>
#include <array>
#include <bit>
#include <string>
#include <utility>

namespace topk {

using namespace wire_internal;

namespace {

constexpr size_t kRequestHeaderBytes = 5;  // length, type
constexpr size_t kWindowFieldBytes = 3 * sizeof(uint32_t);
constexpr uint64_t kSignBit = uint64_t{1} << 63;

void PatchLength(WireFrame* frame) {
  Put(frame->data(), static_cast<uint32_t>(frame->size()));
}

// Order-preserving u64 key of a score: set the sign bit of a non-negative
// one, flip every bit of a negative one. Bijective on all 2^64 bit patterns.
uint64_t ScoreKey(Score score) {
  const uint64_t bits = std::bit_cast<uint64_t>(score);
  return bits ^ ((uint64_t{0} - (bits >> 63)) | kSignBit);
}

Score KeyScore(uint64_t key) {
  return std::bit_cast<Score>(key ^ (((key >> 63) - 1) | kSignBit));
}

// Whole bytes needed to hold `value` (0 for 0).
unsigned ByteWidth(uint64_t value) {
  return (static_cast<unsigned>(std::bit_width(value)) + 7) / 8;
}

// Writes the low W bytes of each value. A block's width never exceeds
// sizeof(T) (it is the ByteWidth of T values), so wider instances are empty.
template <size_t W, typename T>
uint8_t* PutColumnAt(const T* values, size_t rows, uint8_t* out) {
  if constexpr (W > 0 && W <= sizeof(T)) {
    for (size_t i = 0; i < rows; ++i) {
      std::memcpy(out + i * W, &values[i], W);
    }
  }
  return out + rows * W;
}

template <typename T>
uint8_t* PutColumn(const T* values, size_t rows, unsigned width,
                   uint8_t* out) {
  switch (width) {
    case 0: return PutColumnAt<0>(values, rows, out);
    case 1: return PutColumnAt<1>(values, rows, out);
    case 2: return PutColumnAt<2>(values, rows, out);
    case 3: return PutColumnAt<3>(values, rows, out);
    case 4: return PutColumnAt<4>(values, rows, out);
    case 5: return PutColumnAt<5>(values, rows, out);
    case 6: return PutColumnAt<6>(values, rows, out);
    case 7: return PutColumnAt<7>(values, rows, out);
    default: return PutColumnAt<8>(values, rows, out);
  }
}

// The W-byte little-endian value at `in`, assembled in registers: a memcpy
// of W bytes into a zeroed u64 goes through the stack, and reading the
// whole word back after the narrower stores stalls store forwarding.
template <size_t W>
uint64_t LoadBytes(const uint8_t* in) {
  if constexpr (W >= 4) {
    uint32_t low = 0;
    std::memcpy(&low, in, sizeof(low));
    if constexpr (W == 4) {
      return low;
    } else {
      return low | LoadBytes<W - 4>(in + 4) << 32;
    }
  } else if constexpr (W >= 2) {
    uint16_t low = 0;
    std::memcpy(&low, in, sizeof(low));
    if constexpr (W == 2) {
      return low;
    } else {
      return low | LoadBytes<W - 2>(in + 2) << 16;
    }
  } else if constexpr (W == 1) {
    return in[0];
  } else {
    return 0;
  }
}

// Decodes one block of `rows` rows: deltas of key_width bytes at `deltas`,
// ids of item_width bytes at `items`; `*prev` is the key before the block.
using DecodeBlockFn = void (*)(const uint8_t* deltas, const uint8_t* items,
                               size_t rows, uint64_t* prev, ListEntry* out);

template <size_t KeyWidth, size_t ItemWidth>
void DecodeBlockAt(const uint8_t* deltas, const uint8_t* items, size_t rows,
                   uint64_t* prev, ListEntry* out) {
  uint64_t key = *prev;
  for (size_t i = 0; i < rows; ++i) {
    key -= LoadBytes<KeyWidth>(deltas + i * KeyWidth);
    out[i].item =
        static_cast<ItemId>(LoadBytes<ItemWidth>(items + i * ItemWidth));
    out[i].score = KeyScore(key);
  }
  *prev = key;
}

// A block's key deltas take 0..8 bytes and its item ids 0..4.
constexpr size_t kItemWidths = sizeof(ItemId) + 1;

// One decoder per (key width, item width), indexed
// key_width * kItemWidths + item_width.
template <size_t... Index>
constexpr std::array<DecodeBlockFn, sizeof...(Index)> DecodeBlockTable(
    std::index_sequence<Index...>) {
  return {&DecodeBlockAt<Index / kItemWidths, Index % kItemWidths>...};
}
constexpr auto kDecodeBlock = DecodeBlockTable(
    std::make_index_sequence<(sizeof(uint64_t) + 1) * kItemWidths>{});

// Bounds-checked little-endian reads over a frame; every Get fails once
// the frame is short, and the decoders test ok() before using a value.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> frame)
      : at_(frame.data()), end_(frame.data() + frame.size()) {}

  template <typename T>
  T Get() {
    T value{};
    if (Has(sizeof(T))) {
      std::memcpy(&value, at_, sizeof(T));
      at_ += sizeof(T);
    }
    return value;
  }

  /// True when `bytes` more bytes remain; false also marks the read failed.
  bool Has(size_t bytes) {
    ok_ = ok_ && bytes <= Remaining();
    return ok_;
  }
  size_t Remaining() const { return static_cast<size_t>(end_ - at_); }
  const uint8_t* at() const { return at_; }
  void Skip(size_t bytes) { at_ += bytes; }
  bool ok() const { return ok_; }
  /// True when every read succeeded and the frame is fully consumed.
  bool Done() const { return ok_ && at_ == end_; }

 private:
  const uint8_t* at_;
  const uint8_t* end_;
  bool ok_ = true;
};

Status Malformed(const char* what, MessageType type) {
  return Status::Invalid("wire codec: malformed ", what, " frame (type ",
                         static_cast<int>(type), ")");
}

// Reads the frame header: the length must equal the frame's size and the
// type must be known.
bool ReadHeader(Reader* in, size_t frame_size, MessageType* type) {
  const uint32_t length = in->Get<uint32_t>();
  const uint8_t tag = in->Get<uint8_t>();
  *type = static_cast<MessageType>(tag);
  return in->ok() && length == frame_size && tag < kMessageTypeCount;
}

// Rows `item_at(i)`, `score_at(i)` for i < count, packed in blocks.
template <typename ItemAt, typename ScoreAt>
void EncodeRows(MessageType type, size_t count, const ItemAt& item_at,
                const ScoreAt& score_at, bool drained_to_threshold,
                WireFrame* frame) {
  // Sized for the widest rows, then cut to what the blocks took.
  const size_t blocks = (count + kBlockRows - 1) / kBlockRows;
  uint8_t* out = BeginOkReply(
      type,
      1 + sizeof(uint32_t) + (count > 0 ? sizeof(uint64_t) : 0) + blocks +
          count * (sizeof(uint64_t) + sizeof(ItemId)),
      frame);
  const uint8_t* const begin = frame->data();
  out = Put(out, static_cast<uint8_t>(drained_to_threshold ? 1 : 0));
  out = Put(out, static_cast<uint32_t>(count));
  if (count > 0) {
    uint64_t prev = ScoreKey(score_at(0));
    out = Put(out, prev);
    uint64_t deltas[kBlockRows] = {};
    ItemId items[kBlockRows] = {};
    for (size_t base = 0; base < count; base += kBlockRows) {
      const size_t rows = std::min(count - base, kBlockRows);
      uint64_t delta_bits = 0;
      uint64_t item_bits = 0;
      for (size_t i = 0; i < rows; ++i) {
        const uint64_t key = ScoreKey(score_at(base + i));
        deltas[i] = prev - key;
        prev = key;
        items[i] = item_at(base + i);
        delta_bits |= deltas[i];
        item_bits |= items[i];
      }
      const unsigned key_width = ByteWidth(delta_bits);
      const unsigned item_width = ByteWidth(item_bits);
      out = Put(out, static_cast<uint8_t>(key_width | item_width << 4));
      out = PutColumn(deltas, rows, key_width, out);
      out = PutColumn(items, rows, item_width, out);
    }
  }
  frame->resize(static_cast<size_t>(out - begin));
  PatchLength(frame);
}

Status DecodeRows(Reader* in, MessageType type, Reply* reply) {
  const uint8_t drained = in->Get<uint8_t>();
  const uint32_t count = in->Get<uint32_t>();
  if (!in->ok() || drained > 1) {
    return Malformed("rows reply", type);
  }
  reply->drained_to_threshold = drained != 0;
  if (count == 0) {
    return in->Done() ? Status::OK() : Malformed("rows reply", type);
  }
  uint64_t prev = in->Get<uint64_t>();
  // Walk the block headers first, so a corrupt count or width is caught
  // before the rows are sized.
  Reader walk = *in;
  for (uint64_t left = count; left > 0 && walk.ok();) {
    const uint8_t widths = walk.Get<uint8_t>();
    const size_t rows = std::min<uint64_t>(left, kBlockRows);
    const unsigned key_width = widths & 15u;
    const unsigned item_width = widths >> 4;
    if (key_width > sizeof(uint64_t) || item_width > sizeof(ItemId) ||
        !walk.Has(rows * (key_width + item_width))) {
      return Malformed("rows reply", type);
    }
    walk.Skip(rows * (key_width + item_width));
    left -= rows;
  }
  if (!walk.Done()) {
    return Malformed("rows reply", type);
  }
  reply->entries.resize(count);
  ListEntry* out = reply->entries.data();
  for (size_t base = 0; base < count; base += kBlockRows) {
    const size_t rows = std::min<size_t>(count - base, kBlockRows);
    const uint8_t widths = in->Get<uint8_t>();
    const unsigned key_width = widths & 15u;
    const unsigned item_width = widths >> 4;
    kDecodeBlock[key_width * kItemWidths + item_width](
        in->at(), in->at() + rows * key_width, rows, &prev, out + base);
    in->Skip(rows * (key_width + item_width));
  }
  return Status::OK();
}

}  // namespace

// --- requests ---

size_t Request::WireBytes() const {
  switch (type) {
    case MessageType::kSortedWindow:
      return kRequestHeaderBytes + kWindowFieldBytes;
    case MessageType::kDrain:
      return kRequestHeaderBytes + kWindowFieldBytes + sizeof(Score);
    case MessageType::kRandomLookup:
      return kRequestHeaderBytes + 2 * sizeof(uint32_t) +
             items.size() * sizeof(ItemId);
    case MessageType::kHello:
    case MessageType::kProbe:
      break;
  }
  return kRequestHeaderBytes;
}

void EncodeRequest(const Request& request, WireFrame* frame) {
  frame->resize(request.WireBytes());
  uint8_t* out = Put(frame->data(), static_cast<uint32_t>(frame->size()));
  out = Put(out, static_cast<uint8_t>(request.type));
  switch (request.type) {
    case MessageType::kSortedWindow:
    case MessageType::kDrain:
      out = Put(out, request.list_index);
      out = Put(out, request.start);
      out = Put(out, request.max_entries);
      if (request.type == MessageType::kDrain) {
        Put(out, request.threshold);
      }
      break;
    case MessageType::kRandomLookup:
      out = Put(out, request.list_index);
      out = Put(out, static_cast<uint32_t>(request.items.size()));
      if (!request.items.empty()) {
        std::memcpy(out, request.items.data(),
                    request.items.size() * sizeof(ItemId));
      }
      break;
    case MessageType::kHello:
    case MessageType::kProbe:
      break;
  }
}

Status DecodeRequest(std::span<const uint8_t> frame, Request* request) {
  Reader in(frame);
  MessageType type = MessageType::kHello;
  if (!ReadHeader(&in, frame.size(), &type)) {
    return Malformed("request", type);
  }
  request->type = type;
  request->list_index = 0;
  request->start = 1;
  request->max_entries = 0;
  request->threshold = 0.0;
  request->items.clear();
  switch (type) {
    case MessageType::kSortedWindow:
    case MessageType::kDrain:
      request->list_index = in.Get<uint32_t>();
      request->start = in.Get<Position>();
      request->max_entries = in.Get<uint32_t>();
      if (type == MessageType::kDrain) {
        request->threshold = in.Get<Score>();
      }
      break;
    case MessageType::kRandomLookup: {
      request->list_index = in.Get<uint32_t>();
      const uint32_t count = in.Get<uint32_t>();
      if (!in.ok() || in.Remaining() != size_t{count} * sizeof(ItemId)) {
        return Malformed("request", type);
      }
      request->items.resize(count);
      if (count > 0) {
        std::memcpy(request->items.data(), in.at(), count * sizeof(ItemId));
      }
      in.Skip(count * sizeof(ItemId));
      break;
    }
    case MessageType::kHello:
    case MessageType::kProbe:
      break;
  }
  return in.Done() ? Status::OK() : Malformed("request", type);
}

// --- replies ---

uint8_t* wire_internal::BeginOkReply(MessageType type, size_t body_bytes,
                                     WireFrame* frame) {
  frame->resize(kReplyHeaderBytes + body_bytes);
  uint8_t* out = Put(frame->data(), static_cast<uint32_t>(frame->size()));
  out = Put(out, static_cast<uint8_t>(type));
  return Put(out, static_cast<uint8_t>(StatusCode::kOk));
}

void EncodeErrorReply(MessageType type, const Status& status,
                      WireFrame* frame) {
  const std::string& message = status.message();
  frame->resize(kReplyHeaderBytes + sizeof(uint32_t) + message.size());
  uint8_t* out = Put(frame->data(), static_cast<uint32_t>(frame->size()));
  out = Put(out, static_cast<uint8_t>(type));
  out = Put(out, static_cast<uint8_t>(status.code()));
  out = Put(out, static_cast<uint32_t>(message.size()));
  if (!message.empty()) {
    std::memcpy(out, message.data(), message.size());
  }
}

void EncodeRowsReply(MessageType type, const ItemId* items,
                     const Score* scores, size_t count,
                     bool drained_to_threshold, WireFrame* frame) {
  EncodeRows(
      type, count, [&](size_t i) { return items[i]; },
      [&](size_t i) { return scores[i]; }, drained_to_threshold, frame);
}

void EncodeProbeReply(WireFrame* frame) {
  BeginOkReply(MessageType::kProbe, 0, frame);
}

void EncodeReply(MessageType type, const Reply& reply, WireFrame* frame) {
  switch (type) {
    case MessageType::kHello:
      EncodeCatalogReply(
          reply.catalog.size(), [&](size_t i) { return reply.catalog[i]; },
          frame);
      return;
    case MessageType::kSortedWindow:
    case MessageType::kDrain:
      EncodeRows(
          type, reply.entries.size(),
          [&](size_t i) { return reply.entries[i].item; },
          [&](size_t i) { return reply.entries[i].score; },
          reply.drained_to_threshold, frame);
      return;
    case MessageType::kRandomLookup:
      EncodeLookupReply(
          reply.lookups.size(), [&](size_t i) { return reply.lookups[i]; },
          frame);
      return;
    case MessageType::kProbe:
      break;
  }
  EncodeProbeReply(frame);
}

Status DecodeReply(std::span<const uint8_t> frame, Reply* reply) {
  reply->Clear();
  Reader in(frame);
  MessageType type = MessageType::kHello;
  const bool header = ReadHeader(&in, frame.size(), &type);
  const uint8_t code = in.Get<uint8_t>();
  if (!header || !in.ok() ||
      code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Malformed("reply", type);
  }
  if (code != static_cast<uint8_t>(StatusCode::kOk)) {
    const uint32_t length = in.Get<uint32_t>();
    if (!in.ok() || in.Remaining() != length) {
      return Malformed("error reply", type);
    }
    return Status(static_cast<StatusCode>(code),
                  std::string(reinterpret_cast<const char*>(in.at()), length));
  }
  Status status;
  switch (type) {
    case MessageType::kHello: {
      const uint32_t count = in.Get<uint32_t>();
      if (!in.ok() || in.Remaining() != size_t{count} * kCatalogBytes) {
        return Malformed("hello reply", type);
      }
      reply->catalog.resize(count);
      for (ListCatalog& entry : reply->catalog) {
        entry.list_index = in.Get<uint32_t>();
        entry.num_items = in.Get<uint32_t>();
        entry.max_score = in.Get<Score>();
        entry.min_score = in.Get<Score>();
      }
      break;
    }
    case MessageType::kSortedWindow:
    case MessageType::kDrain:
      status = DecodeRows(&in, type, reply);
      break;
    case MessageType::kRandomLookup: {
      const uint32_t count = in.Get<uint32_t>();
      if (!in.ok() || in.Remaining() != size_t{count} * kLookupBytes) {
        return Malformed("lookup reply", type);
      }
      reply->lookups.resize(count);
      for (ItemLookup& lookup : reply->lookups) {
        lookup.score = in.Get<Score>();
        lookup.position = in.Get<Position>();
      }
      break;
    }
    case MessageType::kProbe:
      break;
  }
  if (status.ok() && !in.Done()) {
    status = Malformed("reply", type);
  }
  if (!status.ok()) {
    reply->Clear();
    return status;
  }
  reply->frame_bytes = frame.size();
  return status;
}

}  // namespace topk
