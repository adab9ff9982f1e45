// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Tests of the wire codec (dist/wire_codec.h): every message type
// round-trips field by field — scores bit for bit, whatever their value —
// WireBytes() equals the encoded length, packed rows cost about 8 bytes on
// a uniform list, and truncated or corrupted frames decode to an error or a
// valid message, never to undefined behaviour (the sanitizer build runs
// this file too).

#include "dist/wire_codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "dist/list_owner.h"
#include "gen/database_generator.h"

namespace topk {
namespace {

constexpr ItemId kMaxItem = UINT32_MAX - 1;

uint64_t Bits(Score score) { return std::bit_cast<uint64_t>(score); }

Score FromBits(uint64_t bits) { return std::bit_cast<Score>(bits); }

// Scores the codec must carry bit for bit.
std::vector<Score> AwkwardScores() {
  const double inf = std::numeric_limits<double>::infinity();
  return {1.0,
          0.5,
          0.0,
          -0.0,
          0.0,
          -0.0,
          -0.0,
          0.0,
          -1e-300,
          std::numeric_limits<double>::denorm_min(),
          -std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::min() / 3.0,
          inf,
          -inf,
          std::numeric_limits<double>::quiet_NaN(),
          FromBits(0x7ff0000000000001ull),  // signalling NaN payload
          FromBits(0xfff8dead0000beefull),  // negative NaN with a payload
          std::numeric_limits<double>::max(),
          std::numeric_limits<double>::lowest(),
          -2.5,
          3.75,  // not descending: rises after a fall
          -7.0};
}

void ExpectSameRequest(const Request& got, const Request& want) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.list_index, want.list_index);
  EXPECT_EQ(got.start, want.start);
  EXPECT_EQ(got.max_entries, want.max_entries);
  EXPECT_EQ(Bits(got.threshold), Bits(want.threshold));
  EXPECT_EQ(got.items, want.items);
}

void ExpectSameReply(const Reply& got, const Reply& want) {
  ASSERT_EQ(got.catalog.size(), want.catalog.size());
  for (size_t i = 0; i < want.catalog.size(); ++i) {
    EXPECT_EQ(got.catalog[i].list_index, want.catalog[i].list_index);
    EXPECT_EQ(got.catalog[i].num_items, want.catalog[i].num_items);
    EXPECT_EQ(Bits(got.catalog[i].max_score), Bits(want.catalog[i].max_score));
    EXPECT_EQ(Bits(got.catalog[i].min_score), Bits(want.catalog[i].min_score));
  }
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (size_t i = 0; i < want.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].item, want.entries[i].item) << "row " << i;
    EXPECT_EQ(Bits(got.entries[i].score), Bits(want.entries[i].score))
        << "row " << i;
  }
  ASSERT_EQ(got.lookups.size(), want.lookups.size());
  for (size_t i = 0; i < want.lookups.size(); ++i) {
    EXPECT_EQ(Bits(got.lookups[i].score), Bits(want.lookups[i].score));
    EXPECT_EQ(got.lookups[i].position, want.lookups[i].position);
  }
  EXPECT_EQ(got.drained_to_threshold, want.drained_to_threshold);
}

// Encodes, decodes and compares; returns the frame.
WireFrame RoundTripRequest(const Request& request) {
  WireFrame frame;
  EncodeRequest(request, &frame);
  EXPECT_EQ(request.WireBytes(), frame.size());
  Request decoded;
  decoded.items = {9, 9, 9};  // stale contents must not survive a decode
  const Status status = DecodeRequest(frame, &decoded);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ExpectSameRequest(decoded, request);
  return frame;
}

WireFrame RoundTripReply(MessageType type, const Reply& reply) {
  WireFrame frame;
  EncodeReply(type, reply, &frame);
  Reply decoded;
  decoded.entries.resize(3);  // stale contents must not survive a decode
  decoded.drained_to_threshold = true;
  const Status status = DecodeReply(frame, &decoded);
  EXPECT_TRUE(status.ok()) << status.ToString();
  ExpectSameReply(decoded, reply);
  EXPECT_EQ(decoded.WireBytes(), frame.size());
  return frame;
}

std::vector<ListEntry> RandomRows(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<ListEntry> rows(count);
  for (ListEntry& row : rows) {
    row.item = static_cast<ItemId>(rng.NextBounded(uint64_t{kMaxItem} + 1));
    row.score = FromBits(rng.NextUint64());  // any bit pattern at all
  }
  return rows;
}

// One request of each type: empty and maximal payloads.
std::vector<Request> SampleRequests() {
  std::vector<Request> requests;
  Request r;
  r.type = MessageType::kHello;
  requests.push_back(r);
  r.type = MessageType::kProbe;
  requests.push_back(r);
  r.type = MessageType::kSortedWindow;
  r.list_index = 3;
  r.start = 17;
  r.max_entries = 64;
  requests.push_back(r);
  r.list_index = UINT32_MAX;
  r.start = UINT32_MAX;
  r.max_entries = UINT32_MAX;
  requests.push_back(r);
  for (const Score threshold : AwkwardScores()) {
    r.type = MessageType::kDrain;
    r.list_index = 1;
    r.start = 65;
    r.max_entries = 1024;
    r.threshold = threshold;
    requests.push_back(r);
  }
  r = Request{};
  r.type = MessageType::kRandomLookup;
  r.list_index = 2;
  requests.push_back(r);  // an empty batch
  r.items = {0, kMaxItem, 7, 0, kMaxItem};
  requests.push_back(r);
  for (uint32_t i = 0; i < 20000; ++i) {
    r.items.push_back(i * 214013u);
  }
  requests.push_back(r);
  return requests;
}

// One reply of each type: empty and maximal payloads, awkward scores.
std::vector<std::pair<MessageType, Reply>> SampleReplies() {
  std::vector<std::pair<MessageType, Reply>> replies;
  Reply r;
  replies.emplace_back(MessageType::kHello, r);
  replies.emplace_back(MessageType::kProbe, r);
  replies.emplace_back(MessageType::kSortedWindow, r);
  replies.emplace_back(MessageType::kRandomLookup, r);
  r.drained_to_threshold = true;
  replies.emplace_back(MessageType::kDrain, r);

  const std::vector<Score> awkward = AwkwardScores();
  r = Reply{};
  for (size_t i = 0; i < awkward.size(); ++i) {
    r.catalog.push_back(ListCatalog{static_cast<uint32_t>(i),
                                    i == 0 ? UINT32_MAX : 100000u,
                                    awkward[i],
                                    awkward[awkward.size() - 1 - i]});
  }
  replies.emplace_back(MessageType::kHello, r);

  r = Reply{};
  Reply lookups;
  for (size_t i = 0; i < awkward.size(); ++i) {
    r.entries.push_back(
        ListEntry{i % 2 == 0 ? ItemId{0} : kMaxItem, awkward[i]});
    lookups.lookups.push_back(ItemLookup{
        awkward[i], i % 2 == 0 ? Position{0} : Position{UINT32_MAX}});
  }
  replies.emplace_back(MessageType::kSortedWindow, r);
  r.drained_to_threshold = true;
  replies.emplace_back(MessageType::kDrain, r);
  replies.emplace_back(MessageType::kRandomLookup, lookups);

  // Descending rows across block edges: one block, a full one, one row
  // past it, and many blocks with equal scores (zero-width deltas) and
  // small ids mixed in.
  for (const size_t count : {size_t{1}, size_t{127}, kBlockRows,
                             kBlockRows + 1, size_t{1000}}) {
    Reply rows;
    for (size_t i = 0; i < count; ++i) {
      rows.entries.push_back(ListEntry{
          static_cast<ItemId>(count - i),
          i < count / 2 ? 1.0 - 1e-3 * static_cast<double>(i) : 0.25});
    }
    replies.emplace_back(MessageType::kSortedWindow, rows);
  }
  // Maximal: many rows of arbitrary bit patterns (every delta and id width).
  Reply wide;
  wide.entries = RandomRows(70000, 5);
  replies.emplace_back(MessageType::kDrain, wide);
  Reply many_lookups;
  for (const ListEntry& row : wide.entries) {
    many_lookups.lookups.push_back(ItemLookup{row.score, row.item});
  }
  replies.emplace_back(MessageType::kRandomLookup, many_lookups);
  return replies;
}

TEST(WireCodecTest, RequestsRoundTripFieldByField) {
  for (const Request& request : SampleRequests()) {
    SCOPED_TRACE(static_cast<int>(request.type));
    RoundTripRequest(request);
  }
}

TEST(WireCodecTest, RepliesRoundTripFieldByField) {
  for (const auto& [type, reply] : SampleReplies()) {
    SCOPED_TRACE(static_cast<int>(type));
    RoundTripReply(type, reply);
  }
}

TEST(WireCodecTest, ErrorRepliesCarryTheOwnersStatus) {
  const Status refusals[] = {
      Status::Invalid("ListOwner: list 4 is not served by this owner"),
      Status::OutOfRange("ListOwner: window start 31 outside [1, 30]"),
      Status::KeyError("ListOwner: item 9 outside [0, 5)"),
      Status::Unavailable(""),
      Status::Internal(std::string(3000, 'x'))};
  for (const Status& refusal : refusals) {
    WireFrame frame;
    EncodeErrorReply(MessageType::kRandomLookup, refusal, &frame);
    Reply reply;
    reply.lookups.resize(2);
    const Status decoded = DecodeReply(frame, &reply);
    EXPECT_EQ(decoded.code(), refusal.code());
    EXPECT_EQ(decoded.message(), refusal.message());
    EXPECT_TRUE(reply.lookups.empty());
    EXPECT_EQ(reply.WireBytes(), 0u);
  }
}

TEST(WireCodecTest, OwnerFramesEqualTheGenericEncoding) {
  // The owner packs straight from the list's arrays; the bytes are the ones
  // EncodeReply writes for the decoded rows.
  const Database db = MakeGaussianDatabase(3000, 1, 4);  // negative scores
  const SortedList& list = db.list(0);
  const ListOwner owner(&db, {0});
  for (const MessageType type :
       {MessageType::kSortedWindow, MessageType::kDrain}) {
    Request request;
    request.type = type;
    request.list_index = 0;
    request.start = 200;
    request.max_entries = 2000;
    request.threshold = list.EntryAt(1500).score;
    WireFrame served;
    owner.Serve(request, &served);
    Reply reply;
    ASSERT_TRUE(DecodeReply(served, &reply).ok());
    ASSERT_EQ(reply.entries.size(),
              type == MessageType::kDrain ? 1302u : 2000u);
    EXPECT_EQ(reply.drained_to_threshold, type == MessageType::kDrain);
    for (size_t i = 0; i < reply.entries.size(); ++i) {
      const ListEntry want = list.EntryAt(static_cast<Position>(200 + i));
      EXPECT_EQ(reply.entries[i].item, want.item);
      EXPECT_EQ(Bits(reply.entries[i].score), Bits(want.score));
    }
    WireFrame generic;
    EncodeReply(type, reply, &generic);
    EXPECT_EQ(generic, served);
  }
}

TEST(WireCodecTest, UniformRowsPackToAboutEightBytes) {
  // n = 100k uniform scores: adjacent keys differ in about 5 bytes and ids
  // fit in 3, against the 12 raw bytes of an (id, score) pair.
  const Database db = MakeUniformDatabase(100000, 1, 1);
  const SortedList& list = db.list(0);
  for (const Position start : {Position{1}, Position{50000}}) {
    WireFrame frame;
    EncodeRowsReply(MessageType::kDrain, list.items().data() + start - 1,
                    list.scores().data() + start - 1, 1024, false, &frame);
    const double per_row = static_cast<double>(frame.size()) / 1024.0;
    EXPECT_LT(per_row, 8.1) << "start " << start;
    EXPECT_GT(per_row, 7.0) << "start " << start;
  }
}

// Every strict prefix — as cut, and with its length field patched to the
// cut so the body's own checks run — and 400 seeded single-byte corruptions
// decode to a non-OK Status or to a message that re-encodes and decodes to
// itself.
template <typename Message, typename Decode, typename Reencode>
void ExpectRobustDecoding(const WireFrame& frame, Decode decode,
                          Reencode reencode, uint64_t seed) {
  const auto check = [&](const WireFrame& bytes) {
    Message message;
    if (!decode(bytes, &message).ok()) {
      return;
    }
    WireFrame again;
    reencode(message, bytes, &again);
    Message twice;
    ASSERT_TRUE(decode(again, &twice).ok());
    WireFrame thrice;
    reencode(twice, again, &thrice);
    EXPECT_EQ(again, thrice);
  };
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    WireFrame prefix(frame.begin(), frame.begin() + cut);
    Message message;
    EXPECT_FALSE(decode(prefix, &message).ok()) << "cut " << cut;
    if (cut >= sizeof(uint32_t)) {
      const uint32_t length = static_cast<uint32_t>(cut);
      std::memcpy(prefix.data(), &length, sizeof(length));
      check(prefix);
    }
  }
  Rng rng(seed);
  for (int flip = 0; flip < 400; ++flip) {
    WireFrame corrupt = frame;
    corrupt[rng.NextBounded(corrupt.size())] ^=
        static_cast<uint8_t>(1 + rng.NextBounded(255));
    check(corrupt);
  }
}

TEST(WireCodecTest, TruncatedAndCorruptedRequestsFailCleanly) {
  uint64_t seed = 1;
  for (const Request& request : SampleRequests()) {
    if (request.items.size() > 100) {
      continue;  // every prefix of the big batch is slow under sanitizers
    }
    WireFrame frame;
    EncodeRequest(request, &frame);
    ExpectRobustDecoding<Request>(
        frame,
        [](const WireFrame& bytes, Request* out) {
          return DecodeRequest(bytes, out);
        },
        [](const Request& message, const WireFrame&, WireFrame* out) {
          EncodeRequest(message, out);
        },
        seed++);
  }
}

TEST(WireCodecTest, TruncatedAndCorruptedRepliesFailCleanly) {
  std::vector<std::pair<MessageType, Reply>> replies = SampleReplies();
  Reply mixed;  // a few blocks of both narrow and wide rows
  mixed.entries = RandomRows(300, 9);
  for (size_t i = 0; i < 150; ++i) {
    mixed.entries[i] = ListEntry{static_cast<ItemId>(i), 0.5 - 1e-6 * i};
  }
  replies.emplace_back(MessageType::kDrain, mixed);
  uint64_t seed = 100;
  for (const auto& [type, reply] : replies) {
    if (reply.entries.size() + reply.lookups.size() > 2000) {
      continue;  // every prefix of the big frames is slow under sanitizers
    }
    SCOPED_TRACE(static_cast<int>(type));
    WireFrame frame;
    EncodeReply(type, reply, &frame);
    ExpectRobustDecoding<Reply>(
        frame,
        [](const WireFrame& bytes, Reply* out) {
          return DecodeReply(bytes, out);
        },
        // A flipped type byte may decode as another type: re-encode as the
        // type the decoded frame names.
        [](const Reply& message, const WireFrame& source, WireFrame* out) {
          EncodeReply(static_cast<MessageType>(source[sizeof(uint32_t)]),
                      message, out);
        },
        seed++);
  }
  WireFrame error;
  EncodeErrorReply(MessageType::kDrain, Status::OutOfRange("start 9"),
                   &error);
  for (size_t cut = 0; cut < error.size(); ++cut) {
    Reply reply;
    const Status status =
        DecodeReply(WireFrame(error.begin(), error.begin() + cut), &reply);
    EXPECT_TRUE(status.IsInvalid()) << "cut " << cut;
  }
}

}  // namespace
}  // namespace topk
