// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Tests of the distributed layer: ListOwner serving semantics, transport
// fault determinism, and the Coordinator's two acceptance bars —
//
//  1. parity: fault-free distributed BPA/TPUT return byte-identical
//     items/scores (same tie order) and identical logical access counts to
//     the single-node engine;
//  2. robustness: under injected owner death and delays every query still
//     returns, within its governor deadline, a θ-certified answer (θ >= 1,
//     θ == 1 iff certified exact), deterministically replayable from the
//     fault seed;
//
// and one query lifecycle: the Coordinator starts and finishes its queries
// with the single-node code, so certificates, execution_cost and StrictMode
// agree with the single-node twin.

#include "dist/coordinator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "core/algorithms.h"
#include "dist/fault_injecting_transport.h"
#include "dist/in_process_transport.h"
#include "dist/list_owner.h"
#include "dist/wire_codec.h"
#include "gen/database_generator.h"
#include "gen/paper_fixtures.h"
#include "lists/scorer.h"

namespace topk {
namespace {

// ---- Shared checks and transport decorators ----

// Shared check: `dist` is byte-identical to the single-node reference —
// same items, same scores (same tie order), same stop depth, same logical
// access counts — and certified exact.
void ExpectExactParity(const TopKResult& dist, const TopKResult& reference) {
  ASSERT_EQ(dist.items.size(), reference.items.size());
  for (size_t i = 0; i < reference.items.size(); ++i) {
    EXPECT_EQ(dist.items[i].item, reference.items[i].item) << "rank " << i;
    EXPECT_DOUBLE_EQ(dist.items[i].score, reference.items[i].score);
  }
  EXPECT_EQ(dist.stop_position, reference.stop_position);
  EXPECT_EQ(dist.stats.sorted_accesses, reference.stats.sorted_accesses);
  EXPECT_EQ(dist.stats.random_accesses, reference.stats.random_accesses);
  EXPECT_EQ(dist.completion, Completion::kExact);
  EXPECT_DOUBLE_EQ(dist.theta, 1.0);
}

// Shared check: a degraded answer's certificate holds against Naive — every
// returned score is a lower bound of the item's true score, no returned item
// sits below kth_lower_bound, and no unreturned item exceeds
// unreturned_upper_bound or θ times kth_lower_bound.
void ExpectCertifiedAgainstNaive(const Database& db, const Scorer& scorer,
                                 const TopKResult& result) {
  const double eps = 1e-9;
  EXPECT_NE(result.completion, Completion::kExact);
  EXPECT_GE(result.theta, 1.0);
  std::vector<Score> row(db.num_lists());
  const auto true_score = [&](ItemId item) {
    for (size_t j = 0; j < db.num_lists(); ++j) {
      row[j] = db.list(j).Lookup(item).score;
    }
    return scorer.Combine(row.data(), row.size());
  };
  std::vector<bool> returned(db.num_items(), false);
  for (const ResultItem& item : result.items) {
    returned[item.item] = true;
    EXPECT_LE(item.score, true_score(item.item) + eps) << "item " << item.item;
    EXPECT_GE(true_score(item.item) + eps, result.kth_lower_bound);
  }
  for (ItemId item = 0; item < db.num_items(); ++item) {
    if (returned[item]) {
      continue;
    }
    EXPECT_LE(true_score(item), result.unreturned_upper_bound + eps)
        << "item " << item;
    if (result.kth_lower_bound > 0.0) {
      EXPECT_LE(true_score(item), result.theta * result.kth_lower_bound + eps)
          << "item " << item;
    }
  }
}

// A transport decorator that slows every exchange by its owner's own fixed
// latency — plus, given a link bandwidth, its request and reply bytes over
// that bandwidth — and logs the query's exchanges (the handshake's are left
// out), so a test can rebuild the virtual timeline the coordinator should
// charge, or follow a list's sorted cursor across owners.
class LaneTransport : public Transport {
 public:
  struct Exchange {
    MessageType type;
    size_t owner;
    uint32_t list_index;
    Position start;  ///< the request's first position (windows, drains)
    size_t rows;     ///< entries in the reply; 0 when the exchange failed
    bool ok;
    double latency_ms;
  };

  LaneTransport(Transport* inner, double ms_per_owner,
                double bytes_per_ms = 0.0)
      : inner_(inner), ms_per_owner_(ms_per_owner),
        bytes_per_ms_(bytes_per_ms) {}

  size_t num_owners() const override { return inner_->num_owners(); }

  Status Call(size_t owner, const Request& request, Reply* reply,
              CallResult* result) override {
    const Status status = inner_->Call(owner, request, reply, result);
    result->latency_ms += ms_per_owner_ * static_cast<double>(owner + 1);
    if (bytes_per_ms_ > 0.0) {
      const size_t bytes =
          request.WireBytes() + (status.ok() ? reply->WireBytes() : 0);
      result->latency_ms += static_cast<double>(bytes) / bytes_per_ms_;
    }
    if (request.type != MessageType::kHello) {
      log_.push_back({request.type, owner, request.list_index, request.start,
                      status.ok() ? reply->entries.size() : 0, status.ok(),
                      result->latency_ms});
    }
    if (request.type == MessageType::kRandomLookup) {
      for (const ItemId item : request.items) {
        lookups_.insert(uint64_t{request.list_index} << 32 | item);
      }
    }
    return status;
  }

  const std::vector<Exchange>& log() const { return log_; }
  /// Distinct (list, item) pairs sent in lookups: what the coordinator
  /// asked for, with hedged and retried copies counted once.
  size_t distinct_lookups() const { return lookups_.size(); }
  void Clear() {
    log_.clear();
    lookups_.clear();
  }

 private:
  Transport* inner_;
  double ms_per_owner_;
  double bytes_per_ms_;
  std::vector<Exchange> log_;
  std::set<uint64_t> lookups_;
};

// A transport decorator that delays chosen query exchanges of one owner:
// its calls are numbered from 0 in order (the handshake left out), and the
// listed ones arrive delay_ms late.
class ScriptedDelayTransport : public Transport {
 public:
  ScriptedDelayTransport(Transport* inner, size_t owner,
                         std::set<uint64_t> delayed_calls, double delay_ms)
      : inner_(inner),
        owner_(owner),
        delayed_calls_(std::move(delayed_calls)),
        delay_ms_(delay_ms) {}

  size_t num_owners() const override { return inner_->num_owners(); }

  Status Call(size_t owner, const Request& request, Reply* reply,
              CallResult* result) override {
    const Status status = inner_->Call(owner, request, reply, result);
    if (owner == owner_ && request.type != MessageType::kHello &&
        delayed_calls_.count(calls_++) != 0) {
      result->latency_ms += delay_ms_;
    }
    return status;
  }

 private:
  Transport* inner_;
  size_t owner_;
  std::set<uint64_t> delayed_calls_;
  double delay_ms_;
  uint64_t calls_ = 0;
};

// ---- ListOwner ----

// Serves `request` at `owner` and decodes the reply frame, as a transport
// does.
Status Serve(const ListOwner& owner, const Request& request, Reply* reply) {
  WireFrame frame;
  owner.Serve(request, &frame);
  return DecodeReply(frame, reply);
}

TEST(ListOwnerTest, HelloAdvertisesCatalog) {
  const Database db = MakeUniformDatabase(100, 3, 7);
  const ListOwner owner(&db, {0, 2});
  Request request;
  request.type = MessageType::kHello;
  Reply reply;
  ASSERT_TRUE(Serve(owner, request, &reply).ok());
  ASSERT_EQ(reply.catalog.size(), 2u);
  EXPECT_EQ(reply.catalog[0].list_index, 0u);
  EXPECT_EQ(reply.catalog[1].list_index, 2u);
  EXPECT_EQ(reply.catalog[0].num_items, 100u);
  EXPECT_DOUBLE_EQ(reply.catalog[0].max_score, db.list(0).MaxScore());
  EXPECT_DOUBLE_EQ(reply.catalog[1].min_score, db.list(2).MinScore());
}

TEST(ListOwnerTest, WindowServesConsecutiveRows) {
  const Database db = MakeUniformDatabase(50, 2, 3);
  const ListOwner owner(&db, {1});
  Request request;
  request.type = MessageType::kSortedWindow;
  request.list_index = 1;
  request.start = 11;
  request.max_entries = 8;
  Reply reply;
  ASSERT_TRUE(Serve(owner, request, &reply).ok());
  ASSERT_EQ(reply.entries.size(), 8u);
  for (size_t off = 0; off < reply.entries.size(); ++off) {
    const ListEntry expected = db.list(1).EntryAt(11 + off);
    EXPECT_EQ(reply.entries[off].item, expected.item);
    EXPECT_DOUBLE_EQ(reply.entries[off].score, expected.score);
  }
}

TEST(ListOwnerTest, WindowClampsAtListEnd) {
  const Database db = MakeUniformDatabase(20, 2, 3);
  const ListOwner owner(&db, {0});
  Request request;
  request.type = MessageType::kSortedWindow;
  request.list_index = 0;
  request.start = 18;
  request.max_entries = 64;
  Reply reply;
  ASSERT_TRUE(Serve(owner, request, &reply).ok());
  EXPECT_EQ(reply.entries.size(), 3u);  // positions 18, 19, 20
}

TEST(ListOwnerTest, DrainIncludesFirstBelowThresholdEntry) {
  const Database db = MakeUniformDatabase(200, 2, 11);
  const ListOwner owner(&db, {0});
  const Score threshold = db.list(0).EntryAt(50).score;
  Request request;
  request.type = MessageType::kDrain;
  request.list_index = 0;
  request.start = 1;
  request.max_entries = 200;
  request.threshold = threshold;
  Reply reply;
  ASSERT_TRUE(Serve(owner, request, &reply).ok());
  ASSERT_TRUE(reply.drained_to_threshold);
  // Every entry but the last is >= threshold; the last is the first one
  // strictly below it (the coordinator's cursor must end below the
  // threshold, exactly like a local sorted scan's).
  ASSERT_GE(reply.entries.size(), 1u);
  for (size_t off = 0; off + 1 < reply.entries.size(); ++off) {
    EXPECT_GE(reply.entries[off].score, threshold);
  }
  EXPECT_LT(reply.entries.back().score, threshold);
}

TEST(ListOwnerTest, LookupAnswersInRequestOrder) {
  const Database db = MakeUniformDatabase(60, 3, 5);
  const ListOwner owner(&db, {2});
  Request request;
  request.type = MessageType::kRandomLookup;
  request.list_index = 2;
  request.items = {7, 3, 42};
  Reply reply;
  ASSERT_TRUE(Serve(owner, request, &reply).ok());
  ASSERT_EQ(reply.lookups.size(), 3u);
  for (size_t idx = 0; idx < request.items.size(); ++idx) {
    const ItemLookup expected = db.list(2).Lookup(request.items[idx]);
    EXPECT_DOUBLE_EQ(reply.lookups[idx].score, expected.score);
    EXPECT_EQ(reply.lookups[idx].position, expected.position);
  }
}

TEST(ListOwnerTest, RejectsForeignListAndBadPositions) {
  const Database db = MakeUniformDatabase(30, 3, 5);
  const ListOwner owner(&db, {0});
  Request request;
  request.type = MessageType::kSortedWindow;
  request.list_index = 1;  // not owned
  request.start = 1;
  request.max_entries = 4;
  Reply reply;
  EXPECT_TRUE(Serve(owner, request, &reply).IsInvalid());
  request.list_index = 0;
  request.start = 31;  // outside [1, n]
  EXPECT_TRUE(Serve(owner, request, &reply).IsOutOfRange());
}

// ---- FaultInjectingTransport ----

TEST(FaultTransportTest, SameSeedSameSchedule) {
  const Database db = MakeUniformDatabase(100, 3, 17);
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.seed = 42;
  plan.drop_rate = 0.3;
  plan.delay_rate = 0.3;
  plan.duplicate_rate = 0.2;

  const auto run = [&](std::vector<int>* outcomes) {
    FaultInjectingTransport transport(&inner, plan);
    Request request;
    request.type = MessageType::kHello;
    Reply reply;
    CallResult call;
    for (int t = 0; t < 50; ++t) {
      const Status status = transport.Call(t % 3, request, &reply, &call);
      outcomes->push_back(status.ok()
                              ? static_cast<int>(call.duplicate_replies) +
                                    (call.latency_ms > 1.0 ? 10 : 0)
                              : -1);
    }
  };
  std::vector<int> first, second;
  run(&first);
  run(&second);
  EXPECT_EQ(first, second);
}

TEST(FaultTransportTest, TargetedKillStopsOwnerAfterBudget) {
  const Database db = MakeUniformDatabase(100, 2, 17);
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.kill_owner = 1;
  plan.kill_after_messages = 3;
  FaultInjectingTransport transport(&inner, plan);
  Request request;
  request.type = MessageType::kHello;
  Reply reply;
  CallResult call;
  // The first three messages are served (the one reaching the death point
  // included); every later call fails.
  for (int t = 0; t < 3; ++t) {
    EXPECT_TRUE(transport.Call(1, request, &reply, &call).ok());
  }
  EXPECT_TRUE(transport.Call(1, request, &reply, &call).IsUnavailable());
  EXPECT_FALSE(transport.OwnerAlive(1));
  EXPECT_TRUE(transport.OwnerAlive(0));
  EXPECT_EQ(transport.fault_stats().dead_owners, 1u);
}

TEST(FaultTransportTest, ValidateRejectsBadPlans) {
  TransportFaultPlan plan;
  plan.drop_rate = 1.5;
  EXPECT_TRUE(plan.Validate("DistBPA", 3).IsInvalid());
  plan = TransportFaultPlan{};
  plan.kill_owner = 3;
  EXPECT_TRUE(plan.Validate("DistBPA", 3).IsInvalid());
  plan = TransportFaultPlan{};
  plan.death_min_messages = 0;
  EXPECT_TRUE(plan.Validate("DistBPA", 3).IsInvalid());
  plan = TransportFaultPlan{};
  plan.kill_owners = {0, 5};  // second entry out of range
  EXPECT_TRUE(plan.Validate("DistBPA", 3).IsInvalid());
  plan = TransportFaultPlan{};
  plan.flap_revive_calls = 2;  // flapping with no death source never flaps
  EXPECT_TRUE(plan.Validate("DistBPA", 3).IsInvalid());
  plan = TransportFaultPlan{};
  plan.flap_revive_calls = 2;
  plan.kill_owner = 1;
  EXPECT_TRUE(plan.Validate("DistBPA", 3).ok());
}

// ---- Coordinator: fault-free parity ----

struct ParityCase {
  size_t n;
  size_t m;
  size_t k;
  uint64_t seed;
};

class DistParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(DistParityTest, BpaMatchesSingleNodeExactly) {
  const ParityCase param = GetParam();
  const Database db = MakeUniformDatabase(param.n, param.m, param.seed);
  SumScorer sum;
  const TopKQuery query{param.k, &sum};

  // Single-node reference: the memoized variant (each item resolved once) —
  // the same discipline the coordinator's wire protocol implements. Items,
  // scores and stop depth are identical to the non-memoized run; access
  // counts are the memoized ones.
  AlgorithmOptions options;
  options.memoize_seen_items = true;
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kBpa, options)->Execute(db, query)
          .ValueOrDie();

  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult dist = coordinator.ExecuteBpa(query).ValueOrDie();

  ASSERT_EQ(dist.items.size(), reference.items.size());
  for (size_t i = 0; i < reference.items.size(); ++i) {
    EXPECT_EQ(dist.items[i].item, reference.items[i].item) << "rank " << i;
    EXPECT_DOUBLE_EQ(dist.items[i].score, reference.items[i].score);
  }
  EXPECT_EQ(dist.stop_position, reference.stop_position);
  EXPECT_EQ(dist.min_best_position, reference.min_best_position);
  EXPECT_EQ(dist.stats.sorted_accesses, reference.stats.sorted_accesses);
  EXPECT_EQ(dist.stats.random_accesses, reference.stats.random_accesses);
  EXPECT_EQ(dist.completion, Completion::kExact);
  EXPECT_DOUBLE_EQ(dist.theta, 1.0);
  EXPECT_FALSE(dist.failed_over);
}

TEST_P(DistParityTest, TputMatchesSingleNodeExactly) {
  const ParityCase param = GetParam();
  const Database db = MakeUniformDatabase(param.n, param.m, param.seed);
  SumScorer sum;
  const TopKQuery query{param.k, &sum};

  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();

  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult dist = coordinator.ExecuteTput(query).ValueOrDie();

  ASSERT_EQ(dist.items.size(), reference.items.size());
  for (size_t i = 0; i < reference.items.size(); ++i) {
    EXPECT_EQ(dist.items[i].item, reference.items[i].item) << "rank " << i;
    EXPECT_DOUBLE_EQ(dist.items[i].score, reference.items[i].score);
  }
  EXPECT_EQ(dist.stop_position, reference.stop_position);
  EXPECT_EQ(dist.stats.sorted_accesses, reference.stats.sorted_accesses);
  EXPECT_EQ(dist.stats.random_accesses, reference.stats.random_accesses);
  EXPECT_EQ(dist.completion, Completion::kExact);
  EXPECT_DOUBLE_EQ(dist.theta, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DistParityTest,
    ::testing::Values(ParityCase{60, 2, 1, 1}, ParityCase{200, 3, 5, 2},
                      ParityCase{500, 4, 10, 3}, ParityCase{500, 4, 10, 4},
                      ParityCase{1000, 5, 20, 5}, ParityCase{300, 6, 50, 6},
                      ParityCase{120, 3, 120, 7}));

TEST(DistCoordinatorTest, WindowSizeDoesNotChangeAnswers) {
  const Database db = MakeUniformDatabase(400, 4, 9);
  SumScorer sum;
  const TopKQuery query{8, &sum};
  InProcessTransport transport = InProcessTransport::PerListOwners(db);

  DistOptions wide;
  wide.window_rows = 256;
  Coordinator a(&transport, wide);
  ASSERT_TRUE(a.Connect().ok());
  DistOptions narrow;
  narrow.window_rows = 3;
  Coordinator b(&transport, narrow);
  ASSERT_TRUE(b.Connect().ok());

  const TopKResult wide_bpa = a.ExecuteBpa(query).ValueOrDie();
  const TopKResult narrow_bpa = b.ExecuteBpa(query).ValueOrDie();
  ASSERT_EQ(wide_bpa.items.size(), narrow_bpa.items.size());
  for (size_t i = 0; i < wide_bpa.items.size(); ++i) {
    EXPECT_EQ(wide_bpa.items[i].item, narrow_bpa.items[i].item);
    EXPECT_DOUBLE_EQ(wide_bpa.items[i].score, narrow_bpa.items[i].score);
  }
  EXPECT_EQ(wide_bpa.stats.sorted_accesses, narrow_bpa.stats.sorted_accesses);

  const TopKResult wide_tput = a.ExecuteTput(query).ValueOrDie();
  const TopKResult narrow_tput = b.ExecuteTput(query).ValueOrDie();
  ASSERT_EQ(wide_tput.items.size(), narrow_tput.items.size());
  for (size_t i = 0; i < wide_tput.items.size(); ++i) {
    EXPECT_EQ(wide_tput.items[i].item, narrow_tput.items[i].item);
    EXPECT_DOUBLE_EQ(wide_tput.items[i].score, narrow_tput.items[i].score);
  }
  // Narrower windows cost more messages for the same logical accesses.
  EXPECT_EQ(wide_tput.stats.sorted_accesses,
            narrow_tput.stats.sorted_accesses);
}

TEST(DistCoordinatorTest, DrainsShipPhaseTwoInSixteenWindowMessages) {
  // A kDrain asks for 16 windows of rows. The owner's threshold stop ends
  // each list's drain where a local scan stops, so the drains ship exactly
  // the loop's phase-2 rows, in ceil(rows / (16 * window_rows)) messages
  // per list, and the answer and access counts are single-node TPUT's. On
  // a 100 Mbit/s link a full drain reply still returns inside the 1 ms
  // hedge floor, so no drain is hedged in duplicate for being long.
  const size_t m = 5;
  const Database db = MakeUniformDatabase(5000, m, 11);
  SumScorer sum;
  const TopKQuery query{20, &sum};
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();

  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  LaneTransport wire(&inner, /*ms_per_owner=*/0.0,
                     /*bytes_per_ms=*/12'500.0);
  const DistOptions options;
  Coordinator coordinator(&wire, options);
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult result = coordinator.ExecuteTput(query).ValueOrDie();
  ExpectExactParity(result, reference);
  EXPECT_EQ(coordinator.stats().hedges, 0u);

  std::vector<uint64_t> drains(m, 0);
  std::vector<uint64_t> drained_rows(m, 0);
  for (const LaneTransport::Exchange& exchange : wire.log()) {
    if (exchange.type == MessageType::kDrain) {
      ++drains[exchange.list_index];
      drained_rows[exchange.list_index] += exchange.rows;
    }
  }
  const uint64_t drain_rows = 16 * uint64_t{options.window_rows};
  uint64_t phase_two_rows = 0;
  for (size_t i = 0; i < m; ++i) {
    SCOPED_TRACE(i);
    // Each list drains past one full message, so the cap is exercised.
    EXPECT_GT(drained_rows[i], drain_rows);
    EXPECT_EQ(drains[i], (drained_rows[i] + drain_rows - 1) / drain_rows);
    phase_two_rows += drained_rows[i];
  }
  // Phase 1 reads k rows of every list; the drains ship the rest.
  EXPECT_EQ(phase_two_rows, result.stats.sorted_accesses - m * query.k);
}

TEST(DistCoordinatorTest, MultiListOwnersMatchPerListOwners) {
  const Database db = MakeUniformDatabase(300, 4, 13);
  SumScorer sum;
  const TopKQuery query{6, &sum};

  InProcessTransport per_list = InProcessTransport::PerListOwners(db);
  Coordinator a(&per_list, DistOptions{});
  ASSERT_TRUE(a.Connect().ok());

  InProcessTransport packed;
  packed.AddOwner(ListOwner(&db, {0, 1}));
  packed.AddOwner(ListOwner(&db, {2, 3}));
  Coordinator b(&packed, DistOptions{});
  ASSERT_TRUE(b.Connect().ok());
  EXPECT_EQ(b.num_lists(), 4u);

  const TopKResult fine = a.ExecuteBpa(query).ValueOrDie();
  const TopKResult coarse = b.ExecuteBpa(query).ValueOrDie();
  ASSERT_EQ(fine.items.size(), coarse.items.size());
  for (size_t i = 0; i < fine.items.size(); ++i) {
    EXPECT_EQ(fine.items[i].item, coarse.items[i].item);
    EXPECT_DOUBLE_EQ(fine.items[i].score, coarse.items[i].score);
  }
}

TEST(DistCoordinatorTest, WorksOnPaperFigure1) {
  const Database db = MakeFigure1Database();
  SumScorer sum;
  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult bpa = coordinator.ExecuteBpa(TopKQuery{3, &sum})
                             .ValueOrDie();
  EXPECT_EQ(bpa.items[0].item, 7u);  // d8
  EXPECT_DOUBLE_EQ(bpa.items[0].score, 71.0);
  const TopKResult tput = coordinator.ExecuteTput(TopKQuery{3, &sum})
                              .ValueOrDie();
  EXPECT_EQ(tput.items[0].item, 7u);
  EXPECT_DOUBLE_EQ(tput.items[0].score, 71.0);
}

TEST(DistCoordinatorTest, BpaSupportsGenericScorers) {
  const Database db = MakeUniformDatabase(150, 3, 21);
  MinScorer min;
  const TopKQuery query{5, &min};
  AlgorithmOptions options;
  options.memoize_seen_items = true;
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kBpa, options)->Execute(db, query)
          .ValueOrDie();
  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult dist = coordinator.ExecuteBpa(query).ValueOrDie();
  ASSERT_EQ(dist.items.size(), reference.items.size());
  for (size_t i = 0; i < reference.items.size(); ++i) {
    EXPECT_EQ(dist.items[i].item, reference.items[i].item);
    EXPECT_DOUBLE_EQ(dist.items[i].score, reference.items[i].score);
  }
  EXPECT_EQ(dist.stop_position, reference.stop_position);
}

TEST(DistCoordinatorTest, TputRejectsNonSumScorer) {
  const Database db = MakeUniformDatabase(40, 3, 2);
  MinScorer min;
  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  EXPECT_TRUE(coordinator.ExecuteTput(TopKQuery{3, &min})
                  .status()
                  .IsNotImplemented());
}

// A transport decorator that re-encodes every request and every answered
// reply it carries and sums the frame lengths.
class RecordingTransport : public Transport {
 public:
  explicit RecordingTransport(Transport* inner) : inner_(inner) {}

  size_t num_owners() const override { return inner_->num_owners(); }

  Status Call(size_t owner, const Request& request, Reply* reply,
              CallResult* result) override {
    const Status status = inner_->Call(owner, request, reply, result);
    ++calls;
    EncodeRequest(request, &frame_);
    request_bytes += frame_.size();
    if (status.ok()) {
      EncodeReply(request.type, *reply, &frame_);
      reply_bytes += frame_.size();
    }
    return status;
  }

  void Reset() { calls = request_bytes = reply_bytes = 0; }

  uint64_t calls = 0;
  uint64_t request_bytes = 0;
  uint64_t reply_bytes = 0;

 private:
  Transport* inner_;
  WireFrame frame_;
};

TEST(DistCoordinatorTest, CountsMessagesAndBytes) {
  const Database db = MakeUniformDatabase(300, 3, 31);
  SumScorer sum;
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  RecordingTransport transport(&inner);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  transport.Reset();  // the query's exchanges only
  const TopKResult result =
      coordinator.ExecuteBpa(TopKQuery{5, &sum}).ValueOrDie();
  const DistStats& stats = coordinator.stats();
  EXPECT_GT(stats.messages_sent, 0u);
  EXPECT_EQ(stats.messages_sent, stats.replies_received);
  // The byte counters are exactly the encoded frame lengths.
  EXPECT_EQ(stats.messages_sent, transport.calls);
  EXPECT_EQ(stats.bytes_sent, transport.request_bytes);
  EXPECT_EQ(stats.bytes_received, transport.reply_bytes);
  EXPECT_GT(stats.bytes_received, stats.bytes_sent);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.timeouts, 0u);
  EXPECT_EQ(stats.owner_deaths, 0u);
  // Batching: far fewer messages than logical accesses.
  EXPECT_LT(stats.messages_sent, result.stats.TotalAccesses());
  EXPECT_GT(stats.virtual_ms, 0.0);
}

// ---- Coordinator: faults ----

TEST(DistFaultTest, DropsAreRetriedTransparently) {
  const Database db = MakeUniformDatabase(400, 3, 5);
  SumScorer sum;
  const TopKQuery query{5, &sum};
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();

  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.seed = 7;
  plan.drop_rate = 0.20;  // well within a 4-attempt budget
  FaultInjectingTransport transport(&inner, plan);
  // 4-row windows make 48-row drains: about twenty messages, enough for the
  // drop rate to hit (at the default the query sends six).
  DistOptions options;
  options.window_rows = 4;
  Coordinator coordinator(&transport, options);
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult dist = coordinator.ExecuteTput(query).ValueOrDie();

  // Recovery is invisible to the answer: same items, same scores.
  ASSERT_EQ(dist.items.size(), reference.items.size());
  for (size_t i = 0; i < reference.items.size(); ++i) {
    EXPECT_EQ(dist.items[i].item, reference.items[i].item);
    EXPECT_DOUBLE_EQ(dist.items[i].score, reference.items[i].score);
  }
  EXPECT_EQ(dist.completion, Completion::kExact);
  // A dropped primary is rescued by its hedge when one fires in time, by a
  // backed-off retry otherwise; either way the loss shows in the wire
  // ledger as a sent message with no reply.
  EXPECT_GT(transport.fault_stats().dropped_messages, 0u);
  const DistStats& stats = coordinator.stats();
  EXPECT_GT(stats.retries + stats.hedges, 0u);
  EXPECT_GT(stats.messages_sent, stats.replies_received);
  EXPECT_EQ(dist.fault_retries, stats.retries);
}

TEST(DistFaultTest, SameSeedSameRun) {
  const Database db = MakeUniformDatabase(400, 4, 5);
  SumScorer sum;
  const TopKQuery query{8, &sum};
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.seed = 99;
  plan.drop_rate = 0.08;
  plan.delay_rate = 0.2;
  plan.delay_ms = 2.0;
  plan.duplicate_rate = 0.1;

  const auto run = [&](TopKResult* result, DistStats* stats) {
    FaultInjectingTransport transport(&inner, plan);
    Coordinator coordinator(&transport, DistOptions{});
    ASSERT_TRUE(coordinator.Connect().ok());
    *result = coordinator.ExecuteBpa(query).ValueOrDie();
    *stats = coordinator.stats();
  };
  TopKResult first_result, second_result;
  DistStats first_stats, second_stats;
  run(&first_result, &first_stats);
  run(&second_result, &second_stats);

  ASSERT_EQ(first_result.items.size(), second_result.items.size());
  for (size_t i = 0; i < first_result.items.size(); ++i) {
    EXPECT_EQ(first_result.items[i].item, second_result.items[i].item);
    EXPECT_DOUBLE_EQ(first_result.items[i].score,
                     second_result.items[i].score);
  }
  EXPECT_EQ(first_stats.messages_sent, second_stats.messages_sent);
  EXPECT_EQ(first_stats.retries, second_stats.retries);
  EXPECT_EQ(first_stats.hedges, second_stats.hedges);
  EXPECT_EQ(first_stats.duplicate_replies, second_stats.duplicate_replies);
  EXPECT_DOUBLE_EQ(first_stats.virtual_ms, second_stats.virtual_ms);
}

TEST(DistFaultTest, DelaysTriggerHedging) {
  const Database db = MakeUniformDatabase(600, 4, 5);
  SumScorer sum;
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.seed = 3;
  plan.delay_rate = 0.25;
  plan.delay_ms = 50.0;  // way past any p95-derived hedge timeout
  FaultInjectingTransport transport(&inner, plan);
  // 4-row windows make 48-row drains, so dozens of messages race the
  // delays (at the default the query sends eight).
  DistOptions options;
  options.window_rows = 4;
  Coordinator coordinator(&transport, options);
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult result =
      coordinator.ExecuteTput(TopKQuery{10, &sum}).ValueOrDie();
  EXPECT_EQ(result.completion, Completion::kExact);
  EXPECT_GT(coordinator.stats().hedges, 0u);
  EXPECT_GT(coordinator.stats().hedge_wins, 0u);
}

TEST(DistFaultTest, TwoStragglersDoNotSwitchHedgingOff) {
  // dTPUT with 1-row windows and k = 60 sends owner 0 sixty phase-1 windows
  // in a row. Calls 30 and 40 are delayed 5 ms and so are their hedges
  // (calls 31 and 41), so the primaries win and two 5 ms samples enter the
  // owner's latency ring. The hedge timer reads the ring's p95, which two
  // samples of ~50 do not reach: the third delayed window (call 50) is
  // still hedged, and the hedge wins. A p99 timer (the ring's second-largest
  // sample) would have risen to 3 x 5 ms and let it run late.
  const Database db = MakeUniformDatabase(2000, 2, 5);
  SumScorer sum;
  const TopKQuery query{60, &sum};
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  ScriptedDelayTransport transport(&inner, /*owner=*/0, {30, 31, 40, 41, 50},
                                   /*delay_ms=*/5.0);
  DistOptions options;
  options.window_rows = 1;
  Coordinator coordinator(&transport, options);
  ASSERT_TRUE(coordinator.Connect().ok());
  ExpectExactParity(coordinator.ExecuteTput(query).ValueOrDie(), reference);
  EXPECT_EQ(coordinator.stats().hedges, 3u);
  EXPECT_EQ(coordinator.stats().hedge_wins, 1u);
}

TEST(DistFaultTest, OwnerDeathDegradesToCertifiedAnswer) {
  const Database db = MakeUniformDatabase(500, 4, 23);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  const TopKResult truth =
      MakeAlgorithm(AlgorithmKind::kNaive)->Execute(db, query).ValueOrDie();

  for (const bool tput : {false, true}) {
    InProcessTransport inner = InProcessTransport::PerListOwners(db);
    TransportFaultPlan plan;
    plan.kill_owner = 2;
    plan.kill_after_messages = tput ? 2 : 4;
    FaultInjectingTransport transport(&inner, plan);
    Coordinator coordinator(&transport, DistOptions{});
    ASSERT_TRUE(coordinator.Connect().ok());
    // Connect's handshake consumed one of owner 2's messages; the query
    // spends the rest mid-run. dBPA: its first window, first lookup batch
    // and second window, so the second lookup round finds it dead. dTPUT:
    // its phase-1 window, so its drain finds it dead.
    const TopKResult result =
        (tput ? coordinator.ExecuteTput(query) : coordinator.ExecuteBpa(query))
            .ValueOrDie();

    EXPECT_TRUE(result.failed_over);
    EXPECT_EQ(result.completion, Completion::kListFailure);
    EXPECT_GE(result.dead_lists, 1u);
    EXPECT_GE(coordinator.stats().owner_deaths, 1u);
    // The kill landed inside the query, not after it.
    EXPECT_GE(transport.fault_stats().dead_owners, 1u);
    EXPECT_GE(coordinator.stats().groups_lost, 1u);
    EXPECT_GE(result.theta, 1.0);
    // θ-certification soundness against ground truth: every returned score
    // is a lower bound on the item's true score, and no unreturned item's
    // true score exceeds the certified upper bound.
    for (const ResultItem& item : result.items) {
      EXPECT_LE(item.score, truth.items[0].score + 1e-9);
      EXPECT_GE(result.unreturned_upper_bound + 1e-12,
                result.kth_lower_bound);
    }
    std::vector<bool> returned(db.num_items(), false);
    for (const ResultItem& item : result.items) {
      returned[item.item] = true;
    }
    std::vector<Score> row(db.num_lists());
    for (ItemId item = 0; item < db.num_items(); ++item) {
      for (size_t j = 0; j < db.num_lists(); ++j) {
        row[j] = db.list(j).Lookup(item).score;
      }
      const Score true_score = sum.Combine(row.data(), row.size());
      if (!returned[item]) {
        EXPECT_LE(true_score, result.unreturned_upper_bound + 1e-9)
            << "item " << item;
      }
    }
  }
}

TEST(DistFaultTest, DegradedRunRespectsGovernorDeadline) {
  const Database db = MakeUniformDatabase(2000, 4, 29);
  SumScorer sum;
  const TopKQuery query{10, &sum};

  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.seed = 11;
  plan.kill_owner = 1;
  plan.kill_after_messages = 4;
  plan.delay_rate = 0.5;
  plan.delay_ms = 1.0;
  FaultInjectingTransport transport(&inner, plan);
  DistOptions options;
  options.governor.deadline_ms = 30.0;
  Coordinator coordinator(&transport, options);
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult result = coordinator.ExecuteBpa(query).ValueOrDie();

  // The query returns despite death + delays, under the deadline (virtual
  // time is charged at round boundaries, so allow one round of overshoot),
  // with a certified answer.
  EXPECT_NE(result.completion, Completion::kExact);
  EXPECT_GE(result.theta, 1.0);
  EXPECT_LT(coordinator.stats().virtual_ms, 2.0 * 30.0);
  EXPECT_TRUE(std::isfinite(result.kth_lower_bound) ||
              result.items.empty());
}

TEST(DistFaultTest, AllOwnersDeadStillReturnsCertified) {
  const Database db = MakeUniformDatabase(200, 3, 31);
  SumScorer sum;
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.seed = 5;
  plan.owner_death_rate = 1.0;  // every owner dies within the death window
  plan.death_min_messages = 2;
  plan.death_max_messages = 8;
  FaultInjectingTransport transport(&inner, plan);
  // 4-row windows make 48-row drains, so each owner serves enough of the
  // query's messages to reach its death point (at the default each serves
  // three).
  DistOptions options;
  options.window_rows = 4;
  Coordinator coordinator(&transport, options);
  ASSERT_TRUE(coordinator.Connect().ok());
  const TopKResult result =
      coordinator.ExecuteTput(TopKQuery{5, &sum}).ValueOrDie();
  EXPECT_EQ(result.completion, Completion::kListFailure);
  EXPECT_GE(result.theta, 1.0);
  EXPECT_GE(result.dead_lists, 1u);
}

// ---- One query lifecycle: the single-node start and finish ----

TEST(DistLifecycleTest, CertificateCostAndStrictModeMatchSingleNode) {
  // The coordinator finishes its answers with the single-node code: a
  // fault-free answer carries the same collapsed certificate and execution
  // cost as the single-node twin, and StrictMode turns a whole-group death
  // and a tripped access budget into the codes single-node returns. Without
  // StrictMode the same runs return certified anytime answers.
  SumScorer sum;
  constexpr size_t kDeadList = 1;
  for (const uint32_t replicas : {1u, 2u}) {
    for (const uint64_t seed : {3u, 5u, 8u}) {
      const Database db = MakeUniformDatabase(500, 4, seed);
      for (const size_t k : {size_t{1}, size_t{10}, size_t{40}}) {
        const TopKQuery query{k, &sum};
        for (const bool tput : {false, true}) {
          SCOPED_TRACE(::testing::Message()
                       << (tput ? "dTPUT" : "dBPA") << " replicas "
                       << replicas << " seed " << seed << " k " << k);
          AlgorithmOptions single;
          single.memoize_seen_items = !tput;  // dBPA's access-count twin
          const AlgorithmKind kind =
              tput ? AlgorithmKind::kTput : AlgorithmKind::kBpa;
          const TopKResult reference =
              MakeAlgorithm(kind, single)->Execute(db, query).ValueOrDie();
          DistOptions options;
          options.replication_factor = replicas;
          const auto run = [&](Transport* transport,
                               const DistOptions& dist_options) {
            Coordinator coordinator(transport, dist_options);
            const Status connected = coordinator.Connect();
            EXPECT_TRUE(connected.ok()) << connected.ToString();
            return tput ? coordinator.ExecuteTput(query)
                        : coordinator.ExecuteBpa(query);
          };

          InProcessTransport owners =
              InProcessTransport::PerListOwners(db, replicas);
          const TopKResult dist = run(&owners, options).ValueOrDie();
          ExpectExactParity(dist, reference);
          EXPECT_EQ(dist.kth_lower_bound, reference.kth_lower_bound);
          EXPECT_EQ(dist.unreturned_upper_bound,
                    reference.unreturned_upper_bound);
          EXPECT_EQ(dist.theta, reference.theta);
          EXPECT_EQ(dist.execution_cost, reference.execution_cost);

          // Every replica of one list serves only the handshake: the query's
          // first request to it finds the whole group dead. The single-node
          // twin loses the same list on its first access.
          TransportFaultPlan group_death;
          for (uint32_t r = 0; r < replicas; ++r) {
            group_death.kill_owners.push_back(
                InProcessTransport::OwnerIndex(db.num_lists(), kDeadList, r));
          }
          group_death.kill_after_messages = 1;
          AlgorithmOptions single_death = single;
          single_death.fault_plan.kill_list = kDeadList;
          single_death.fault_plan.kill_after_accesses = 1;
          for (const bool strict : {false, true}) {
            SCOPED_TRACE(strict ? "strict" : "anytime");
            // Whole-group death.
            single_death.governor.strict = strict;
            const Result<TopKResult> single_lost =
                MakeAlgorithm(kind, single_death)->Execute(db, query);
            InProcessTransport inner =
                InProcessTransport::PerListOwners(db, replicas);
            FaultInjectingTransport faults(&inner, group_death);
            DistOptions dist_death = options;
            dist_death.governor.strict = strict;
            const Result<TopKResult> lost = run(&faults, dist_death);
            EXPECT_GE(faults.fault_stats().dead_owners, replicas);
            if (strict) {
              EXPECT_TRUE(single_lost.status().IsUnavailable())
                  << single_lost.status().ToString();
              EXPECT_TRUE(lost.status().IsUnavailable())
                  << lost.status().ToString();
            } else {
              ASSERT_TRUE(lost.ok()) << lost.status().ToString();
              EXPECT_EQ(lost.ValueOrDie().completion,
                        Completion::kListFailure);
              EXPECT_EQ(lost.ValueOrDie().dead_lists, 1u);
              ExpectCertifiedAgainstNaive(db, sum, lost.ValueOrDie());
            }

            // An access budget of half the exact run's accesses.
            AlgorithmOptions single_budget = single;
            single_budget.governor.total_access_budget =
                reference.stats.TotalAccesses() / 2;
            single_budget.governor.strict = strict;
            const Result<TopKResult> single_cut =
                MakeAlgorithm(kind, single_budget)->Execute(db, query);
            DistOptions dist_budget = options;
            dist_budget.governor = single_budget.governor;
            const Result<TopKResult> cut = run(&owners, dist_budget);
            if (strict) {
              EXPECT_TRUE(single_cut.status().IsResourceExhausted())
                  << single_cut.status().ToString();
              EXPECT_TRUE(cut.status().IsResourceExhausted())
                  << cut.status().ToString();
            } else {
              ASSERT_TRUE(cut.ok()) << cut.status().ToString();
              EXPECT_EQ(cut.ValueOrDie().completion,
                        Completion::kAccessBudget);
              ExpectCertifiedAgainstNaive(db, sum, cut.ValueOrDie());
            }
          }
        }
      }
    }
  }
}

TEST(DistLifecycleTest, OptionErrorsSurfaceAtConnect) {
  // Options are immutable, so they are validated once, by the handshake;
  // a coordinator that failed to connect rejects every query.
  const Database db = MakeUniformDatabase(50, 3, 2);
  SumScorer sum;
  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  DistOptions options;
  options.window_rows = 0;
  Coordinator coordinator(&transport, options);
  EXPECT_TRUE(coordinator.Connect().IsInvalid());
  EXPECT_EQ(coordinator.stats().messages_sent, 0u);
  EXPECT_TRUE(coordinator.ExecuteBpa(TopKQuery{3, &sum}).status().IsInvalid());
  EXPECT_TRUE(
      coordinator.ExecuteTput(TopKQuery{3, &sum}).status().IsInvalid());
}

// ---- Replica groups: parity, failover ladder, health tracking ----

TEST(DistReplicaTest, FaultFreeR2MatchesSingleNodeExactly) {
  const Database db = MakeUniformDatabase(500, 4, 3);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  AlgorithmOptions memoized;
  memoized.memoize_seen_items = true;
  const TopKResult bpa_reference =
      MakeAlgorithm(AlgorithmKind::kBpa, memoized)->Execute(db, query)
          .ValueOrDie();
  const TopKResult tput_reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();

  InProcessTransport transport = InProcessTransport::PerListOwners(db, 2);
  DistOptions options;
  options.replication_factor = 2;
  Coordinator coordinator(&transport, options);
  ASSERT_TRUE(coordinator.Connect().ok());

  ExpectExactParity(coordinator.ExecuteBpa(query).ValueOrDie(),
                    bpa_reference);
  ExpectExactParity(coordinator.ExecuteTput(query).ValueOrDie(),
                    tput_reference);
  // A fault-free run never leaves replica 0: no failovers, no breaker
  // activity, no probes. The health machinery is pure bookkeeping.
  const DistStats& stats = coordinator.stats();
  EXPECT_EQ(stats.replica_failovers, 0u);
  EXPECT_EQ(stats.breaker_opens, 0u);
  EXPECT_EQ(stats.probes_sent, 0u);
  EXPECT_EQ(stats.groups_lost, 0u);
}

TEST(DistReplicaTest, FaultFreeR2KeepsTheUnreplicatedWireTimeline) {
  // Sticky primaries pin every fault-free RPC to replica 0, whose owners sit
  // at the same indices as the unreplicated topology — so R = 2 costs the
  // same messages, bytes and virtual time as R = 1 until something fails.
  const Database db = MakeUniformDatabase(400, 4, 9);
  SumScorer sum;
  const TopKQuery query{8, &sum};

  InProcessTransport flat = InProcessTransport::PerListOwners(db);
  Coordinator r1(&flat, DistOptions{});
  ASSERT_TRUE(r1.Connect().ok());
  const TopKResult first = r1.ExecuteBpa(query).ValueOrDie();

  InProcessTransport wide = InProcessTransport::PerListOwners(db, 2);
  DistOptions options;
  options.replication_factor = 2;
  Coordinator r2(&wide, options);
  ASSERT_TRUE(r2.Connect().ok());
  const TopKResult second = r2.ExecuteBpa(query).ValueOrDie();

  ExpectExactParity(second, first);
  EXPECT_EQ(r2.stats().messages_sent, r1.stats().messages_sent);
  EXPECT_EQ(r2.stats().bytes_sent, r1.stats().bytes_sent);
  EXPECT_DOUBLE_EQ(r2.stats().virtual_ms, r1.stats().virtual_ms);
}

TEST(DistReplicaTest, MidQueryReplicaKillStaysExact) {
  // The headline robustness bar: kill the primary replica of one list
  // mid-query; the failover ladder (hedge to the sibling, breaker re-pick,
  // cursor handoff at the exact sorted position) keeps the answer
  // byte-identical to the single-node run — not merely certified.
  const Database db = MakeUniformDatabase(500, 4, 23);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  AlgorithmOptions memoized;
  memoized.memoize_seen_items = true;
  const TopKResult bpa_reference =
      MakeAlgorithm(AlgorithmKind::kBpa, memoized)->Execute(db, query)
          .ValueOrDie();
  const TopKResult tput_reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();

  for (const bool tput : {false, true}) {
    InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
    TransportFaultPlan plan;
    // The handshake consumes the primary's whole budget: every query RPC to
    // list 2 finds it dead, so the breaker trips and the sibling takes over.
    plan.kill_owner = InProcessTransport::OwnerIndex(4, 2, 0);
    plan.kill_after_messages = 1;
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    options.replication_factor = 2;
    options.governor.deadline_ms = 500.0;
    if (tput) {
      // At the default dTPUT sends list 2 only three requests (a window, a
      // drain, a lookup batch): hedge wins rescue each and the breaker opens
      // on the last. 4-row windows give it three phase-1 windows, so the
      // breaker opens before the drain, which must re-route.
      options.window_rows = 4;
    }
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    const TopKResult result =
        (tput ? coordinator.ExecuteTput(query) : coordinator.ExecuteBpa(query))
            .ValueOrDie();

    ExpectExactParity(result, tput ? tput_reference : bpa_reference);
    const DistStats& stats = coordinator.stats();
    // The sibling took over as primary at least once, via the breaker.
    EXPECT_GE(stats.replica_failovers, 1u);
    EXPECT_GE(stats.breaker_opens, 1u);
    EXPECT_EQ(stats.groups_lost, 0u);
    // Hedge wins can absorb every primary failure before the retry budget
    // concludes death, so owner_deaths may legitimately stay 0 here — the
    // ladder's whole point is that the answer never notices either way.
  }
}

TEST(DistReplicaTest, CursorHandoffExactAtEveryKillPoint) {
  // Sweep the death point across the query so the handoff lands on every
  // request the primary serves — both windows and both lookup batches. The
  // survivor resumes the sorted cursor at the exact position every time.
  // Hedging is off, so no hedge to the sibling rescues a request to the dead
  // primary: every handoff is the failover ladder's breaker re-route.
  const Database db = MakeUniformDatabase(400, 4, 9);
  SumScorer sum;
  const TopKQuery query{8, &sum};
  AlgorithmOptions memoized;
  memoized.memoize_seen_items = true;
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kBpa, memoized)->Execute(db, query)
          .ValueOrDie();

  for (const uint64_t kill_after : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(kill_after);
    InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
    TransportFaultPlan plan;
    plan.kill_owner = InProcessTransport::OwnerIndex(4, 1, 0);
    plan.kill_after_messages = kill_after;
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    options.replication_factor = 2;
    options.governor.deadline_ms = 500.0;
    options.hedging = false;
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    const TopKResult result = coordinator.ExecuteBpa(query).ValueOrDie();
    ExpectExactParity(result, reference);
    EXPECT_EQ(coordinator.stats().groups_lost, 0u);
    // The kill point fell inside the query and the breaker re-routed the
    // list to the sibling.
    EXPECT_GE(transport.fault_stats().dead_owners, 1u);
    EXPECT_GE(coordinator.stats().replica_failovers, 1u);
  }
}

TEST(DistReplicaTest, DrainHandoffResumesAtTheExactPosition) {
  // dTPUT with 4-row windows: list 1 reads two phase-1 windows, then drains
  // in 48-row messages. Its primary dies after the handshake, both windows
  // and one to three drains, so the kill lands between two drains. With
  // hedging off the breaker re-routes the list, and the sibling's first
  // drain starts at the row after the primary's last one.
  const Database db = MakeUniformDatabase(400, 4, 9);
  SumScorer sum;
  const TopKQuery query{8, &sum};
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();
  const size_t primary = InProcessTransport::OwnerIndex(4, 1, 0);

  for (const uint64_t drains_served : {1u, 2u, 3u}) {
    SCOPED_TRACE(drains_served);
    InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
    TransportFaultPlan plan;
    plan.kill_owner = primary;
    plan.kill_after_messages = 3 + drains_served;
    FaultInjectingTransport faults(&inner, plan);
    LaneTransport wire(&faults, /*ms_per_owner=*/0.0);
    DistOptions options;
    options.replication_factor = 2;
    options.window_rows = 4;
    options.hedging = false;
    Coordinator coordinator(&wire, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    const TopKResult result = coordinator.ExecuteTput(query).ValueOrDie();
    ExpectExactParity(result, reference);
    EXPECT_GE(faults.fault_stats().dead_owners, 1u);
    EXPECT_GE(coordinator.stats().replica_failovers, 1u);
    EXPECT_EQ(coordinator.stats().groups_lost, 0u);

    uint64_t primary_drains = 0;
    uint64_t sibling_drains = 0;
    Position resume = 0;
    for (const LaneTransport::Exchange& exchange : wire.log()) {
      if (exchange.type != MessageType::kDrain || exchange.list_index != 1 ||
          !exchange.ok) {
        continue;
      }
      if (exchange.owner == primary) {
        ++primary_drains;
        resume = exchange.start + static_cast<Position>(exchange.rows);
      } else if (sibling_drains++ == 0) {
        EXPECT_EQ(exchange.start, resume);
      }
    }
    EXPECT_EQ(primary_drains, drains_served);
    EXPECT_GE(sibling_drains, 1u);
  }
}

TEST(DistReplicaTest, BreakerScheduleIsDeterministic) {
  // Breaker opens, half-open probes, failovers and flapping recoveries are
  // all driven by seeded draws and virtual time — two runs of the same plan
  // agree counter-for-counter.
  const Database db = MakeUniformDatabase(600, 4, 29);
  SumScorer sum;
  const TopKQuery query{8, &sum};
  TransportFaultPlan plan;
  plan.seed = 17;
  plan.drop_rate = 0.05;
  plan.delay_rate = 0.2;
  plan.delay_ms = 2.0;
  plan.owner_death_rate = 0.5;
  plan.death_min_messages = 2;
  plan.death_max_messages = 3;  // inside the query's few rounds per list
  plan.flap_revive_calls = 3;

  TransportFaultStats faults;
  const auto run = [&](TopKResult* result, DistStats* stats) {
    InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    options.replication_factor = 2;
    options.governor.deadline_ms = 400.0;
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    *result = coordinator.ExecuteBpa(query).ValueOrDie();
    *stats = coordinator.stats();
    faults = transport.fault_stats();
  };
  TopKResult first_result, second_result;
  DistStats first, second;
  run(&first_result, &first);
  run(&second_result, &second);

  ASSERT_EQ(first_result.items.size(), second_result.items.size());
  for (size_t i = 0; i < first_result.items.size(); ++i) {
    EXPECT_EQ(first_result.items[i].item, second_result.items[i].item);
    EXPECT_DOUBLE_EQ(first_result.items[i].score,
                     second_result.items[i].score);
  }
  EXPECT_EQ(first.messages_sent, second.messages_sent);
  EXPECT_EQ(first.retries, second.retries);
  EXPECT_EQ(first.hedges, second.hedges);
  EXPECT_EQ(first.replica_failovers, second.replica_failovers);
  EXPECT_EQ(first.breaker_opens, second.breaker_opens);
  EXPECT_EQ(first.probes_sent, second.probes_sent);
  EXPECT_EQ(first.groups_lost, second.groups_lost);
  EXPECT_DOUBLE_EQ(first.virtual_ms, second.virtual_ms);
  // The plan actually exercised the health machinery (half of eight owners
  // flap at this seed).
  EXPECT_GT(first.breaker_opens, 0u);
  EXPECT_GE(faults.dead_owners, 1u);
  EXPECT_GE(first.replica_failovers, 1u);
  // The deadline also counts wall time; far from it, no sanitizer or host
  // slowdown can move the point where the query stops.
  EXPECT_LT(first.virtual_ms, 0.5 * 400.0);
}

TEST(DistReplicaTest, WholeGroupDeathDegradesToCertifiedAnswer) {
  // Correlated failure: both replicas of one list die. No ladder rung can
  // save an extinct group, so the query degrades exactly like PR 8's
  // single-owner death — θ-certified NRA over the survivors.
  const Database db = MakeUniformDatabase(500, 4, 23);
  SumScorer sum;
  const TopKQuery query{10, &sum};

  for (const bool tput : {false, true}) {
    InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
    TransportFaultPlan plan;
    plan.kill_owners = {InProcessTransport::OwnerIndex(4, 1, 0),
                        InProcessTransport::OwnerIndex(4, 1, 1)};
    // Each replica serves the handshake and one query request: replica 0
    // the first window, its sibling the next request after the failover;
    // the request after that finds the whole group dead.
    plan.kill_after_messages = 2;
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    options.replication_factor = 2;
    if (tput) {
      // At the default dTPUT sends list 1 only a window and a drain, so no
      // third request finds the group dead. 4-row windows give it three
      // phase-1 windows.
      options.window_rows = 4;
    }
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    const TopKResult result =
        (tput ? coordinator.ExecuteTput(query) : coordinator.ExecuteBpa(query))
            .ValueOrDie();

    EXPECT_TRUE(result.failed_over);
    EXPECT_EQ(result.completion, Completion::kListFailure);
    EXPECT_GE(result.dead_lists, 1u);
    EXPECT_GE(result.theta, 1.0);
    const DistStats& stats = coordinator.stats();
    EXPECT_GE(stats.owner_deaths, 2u);
    EXPECT_GE(stats.groups_lost, 1u);
    // Both kills landed inside the query.
    EXPECT_GE(transport.fault_stats().dead_owners, 2u);
  }
}

// Owners serving lists {0, 1} and {2, 3}, replica-major like PerListOwners:
// owner r * 2 + g serves group g as replica r.
InProcessTransport TwoListOwners(const Database& db, size_t replicas) {
  InProcessTransport transport;
  for (size_t r = 0; r < replicas; ++r) {
    transport.AddOwner(ListOwner(&db, {0, 1}));
    transport.AddOwner(ListOwner(&db, {2, 3}));
  }
  return transport;
}

TEST(DistMultiListOwnerTest, OwnerDeathLosesBothListsCertified) {
  // At R = 1 one owner death takes both of its lists: the query degrades
  // with two groups lost, and the certificate still holds against Naive.
  const Database db = MakeUniformDatabase(500, 4, 23);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  for (const bool tput : {false, true}) {
    SCOPED_TRACE(tput ? "dTPUT" : "dBPA");
    InProcessTransport inner = TwoListOwners(db, 1);
    TransportFaultPlan plan;
    // The owner of lists {2, 3} serves the handshake and list 2's first
    // window; list 3's first window finds it dead.
    plan.kill_owner = 1;
    plan.kill_after_messages = 2;
    FaultInjectingTransport transport(&inner, plan);
    Coordinator coordinator(&transport, DistOptions{});
    ASSERT_TRUE(coordinator.Connect().ok());
    const TopKResult result =
        (tput ? coordinator.ExecuteTput(query) : coordinator.ExecuteBpa(query))
            .ValueOrDie();

    EXPECT_GE(transport.fault_stats().dead_owners, 1u);
    EXPECT_EQ(coordinator.stats().owner_deaths, 1u);
    EXPECT_EQ(coordinator.stats().groups_lost, 2u);
    EXPECT_EQ(result.dead_lists, 2u);
    EXPECT_TRUE(result.failed_over);
    EXPECT_EQ(result.completion, Completion::kListFailure);
    ExpectCertifiedAgainstNaive(db, sum, result);
  }
}

TEST(DistMultiListOwnerTest, ReplicaDeathOfTwoListOwnerStaysExact) {
  // At R = 2 the same death takes one replica of both lists; the sibling
  // serves them both and the answer is byte-identical to single-node.
  const Database db = MakeUniformDatabase(500, 4, 23);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  AlgorithmOptions memoized;
  memoized.memoize_seen_items = true;
  const TopKResult bpa_reference =
      MakeAlgorithm(AlgorithmKind::kBpa, memoized)->Execute(db, query)
          .ValueOrDie();
  const TopKResult tput_reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();
  for (const bool tput : {false, true}) {
    SCOPED_TRACE(tput ? "dTPUT" : "dBPA");
    InProcessTransport inner = TwoListOwners(db, 2);
    TransportFaultPlan plan;
    plan.kill_owner = 1;  // replica 0 of lists {2, 3}
    plan.kill_after_messages = 2;
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    options.replication_factor = 2;
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    const TopKResult result =
        (tput ? coordinator.ExecuteTput(query) : coordinator.ExecuteBpa(query))
            .ValueOrDie();

    ExpectExactParity(result, tput ? tput_reference : bpa_reference);
    EXPECT_EQ(result.execution_cost, (tput ? tput_reference : bpa_reference)
                                         .execution_cost);
    EXPECT_GE(transport.fault_stats().dead_owners, 1u);
    EXPECT_GE(coordinator.stats().replica_failovers +
                  coordinator.stats().hedge_wins,
              1u);
    EXPECT_EQ(coordinator.stats().groups_lost, 0u);
    EXPECT_EQ(result.dead_lists, 0u);
  }
}

TEST(DistReplicaTest, ChaosSoakExactOrCertifiedUnderDeadline) {
  // Seeded chaos across drops, delays, deaths, both replication levels and
  // both engines: every query must return inside the governor deadline with
  // a certified answer, and any run that claims exactness must BE exact.
  // Odd seeds' deaths flap: a down owner revives inside the retry budget,
  // so the coordinator sees failures but declares no death. Even seeds'
  // deaths are permanent, and one list's first replica dies after the
  // handshake and one request, so deaths are declared, replicas fail over
  // and unreplicated lists are lost.
  const Database db = MakeUniformDatabase(600, 4, 29);
  SumScorer sum;
  const TopKQuery query{10, &sum};
  AlgorithmOptions memoized;
  memoized.memoize_seen_items = true;
  const TopKResult bpa_reference =
      MakeAlgorithm(AlgorithmKind::kBpa, memoized)->Execute(db, query)
          .ValueOrDie();
  const TopKResult tput_reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();

  for (const bool tput : {false, true}) {
    uint64_t dead_owners = 0;
    uint64_t owner_deaths = 0;
    uint64_t replica_failovers = 0;
    uint64_t certified_inexact = 0;
    for (const size_t replicas : {size_t{1}, size_t{2}}) {
      for (uint64_t seed = 1; seed <= 6; ++seed) {
        SCOPED_TRACE(::testing::Message()
                     << (tput ? "dTPUT" : "dBPA") << " replicas " << replicas
                     << " seed " << seed);
        InProcessTransport inner =
            InProcessTransport::PerListOwners(db, replicas);
        TransportFaultPlan plan;
        plan.seed = seed;
        plan.drop_rate = 0.05;
        plan.delay_rate = 0.3;
        plan.delay_ms = 2.0;
        plan.owner_death_rate = 0.15;
        plan.death_min_messages = 2;
        plan.death_max_messages = 6;  // an owner serves ~5 per dBPA query
        if (seed % 2 == 0) {
          plan.kill_owner = InProcessTransport::OwnerIndex(4, seed / 2 % 4, 0);
          plan.kill_after_messages = 2;
        } else {
          plan.flap_revive_calls = 2;
        }
        FaultInjectingTransport transport(&inner, plan);
        DistOptions options;
        options.replication_factor = static_cast<uint32_t>(replicas);
        options.governor.deadline_ms = 250.0;
        if (tput) {
          // 4-row windows and 48-row drains: at the default a list's three
          // dTPUT requests end before the dead replica's failures open its
          // breaker (hedges to the sibling rescue each one), so no dTPUT run
          // would fail over.
          options.window_rows = 4;
        }
        Coordinator coordinator(&transport, options);
        ASSERT_TRUE(coordinator.Connect().ok());
        const Result<TopKResult> run = tput ? coordinator.ExecuteTput(query)
                                            : coordinator.ExecuteBpa(query);
        ASSERT_TRUE(run.ok()) << run.status().ToString();
        const TopKResult& result = run.ValueOrDie();
        const DistStats& stats = coordinator.stats();

        EXPECT_GE(result.theta, 1.0);
        EXPECT_LT(stats.virtual_ms, 2.0 * 250.0);
        dead_owners += transport.fault_stats().dead_owners;
        owner_deaths += stats.owner_deaths;
        replica_failovers += stats.replica_failovers;
        if (result.completion == Completion::kExact) {
          ExpectExactParity(result, tput ? tput_reference : bpa_reference);
        } else {
          ++certified_inexact;
          ExpectCertifiedAgainstNaive(db, sum, result);
          EXPECT_TRUE(std::isfinite(result.unreturned_upper_bound) ||
                      result.items.empty());
        }
      }
    }
    // Over the seeds the deaths landed inside queries, and the coordinator
    // declared deaths, failed over and certified a degraded answer.
    SCOPED_TRACE(tput ? "dTPUT" : "dBPA");
    EXPECT_GE(dead_owners, 1u);
    EXPECT_GE(owner_deaths, 1u);
    EXPECT_GE(replica_failovers, 1u);
    EXPECT_GE(certified_inexact, 1u);
  }
}

TEST(DistReplicaTest, ConnectRejectsMismatchedReplicaCounts) {
  const Database db = MakeUniformDatabase(100, 3, 7);
  // One owner per list, but the options promise two replicas each.
  InProcessTransport flat = InProcessTransport::PerListOwners(db);
  DistOptions two;
  two.replication_factor = 2;
  Coordinator under(&flat, two);
  EXPECT_TRUE(under.Connect().IsInvalid());
  // Two owners per list, but the options promise one.
  InProcessTransport wide = InProcessTransport::PerListOwners(db, 2);
  Coordinator over(&wide, DistOptions{});
  EXPECT_TRUE(over.Connect().IsInvalid());
}

TEST(DistReplicaTest, ConnectRejectsDivergentReplicaCatalogs) {
  // Replicas must mirror the same list: a sibling serving a different
  // database is a misconfiguration, not a failover target.
  const Database db = MakeUniformDatabase(100, 2, 7);
  const Database impostor = MakeUniformDatabase(100, 2, 8);
  InProcessTransport transport;
  transport.AddOwner(ListOwner(&db, {0}));
  transport.AddOwner(ListOwner(&db, {1}));
  transport.AddOwner(ListOwner(&impostor, {0}));
  transport.AddOwner(ListOwner(&impostor, {1}));
  DistOptions options;
  options.replication_factor = 2;
  Coordinator coordinator(&transport, options);
  EXPECT_TRUE(coordinator.Connect().IsInvalid());
}

// ---- Fault transport: replica-aware plans ----

// Pins the death-window contract documented in fault_injecting_transport.h:
// every owner's death point counts ITS OWN served messages, so interleaved
// traffic to a sibling never drags another owner's window forward.
TEST(DistFaultTransportTest, DeathWindowsCountPerOwnerMessages) {
  const Database db = MakeUniformDatabase(50, 2, 3);
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.kill_owners = {0, 1};
  plan.kill_after_messages = 2;
  FaultInjectingTransport transport(&inner, plan);
  Request request;
  request.type = MessageType::kHello;
  Reply reply;
  CallResult call;

  EXPECT_TRUE(transport.Call(0, request, &reply, &call).ok());  // 0: 1 of 2
  EXPECT_TRUE(transport.Call(1, request, &reply, &call).ok());  // 1: 1 of 2
  EXPECT_TRUE(transport.Call(0, request, &reply, &call).ok());  // 0: 2 of 2
  // Owner 0 has served its window; owner 1 has one message left even though
  // the transport as a whole carried three.
  EXPECT_TRUE(transport.Call(0, request, &reply, &call).IsUnavailable());
  EXPECT_FALSE(transport.OwnerAlive(0));
  EXPECT_TRUE(transport.Call(1, request, &reply, &call).ok());  // 1: 2 of 2
  EXPECT_TRUE(transport.Call(1, request, &reply, &call).IsUnavailable());
  EXPECT_FALSE(transport.OwnerAlive(1));
  EXPECT_EQ(transport.fault_stats().dead_owners, 2u);
}

TEST(DistFaultTransportTest, FlappingRevivesAfterExactRejectionWindow) {
  const Database db = MakeUniformDatabase(50, 1, 3);
  InProcessTransport inner = InProcessTransport::PerListOwners(db);
  TransportFaultPlan plan;
  plan.kill_owner = 0;
  plan.kill_after_messages = 2;
  plan.flap_revive_calls = 3;
  FaultInjectingTransport transport(&inner, plan);
  Request request;
  request.type = MessageType::kHello;
  Reply reply;
  CallResult call;

  // Serves its window, rejects exactly flap_revive_calls calls (the last
  // rejection is the one that revives it), then serves again.
  EXPECT_TRUE(transport.Call(0, request, &reply, &call).ok());
  EXPECT_TRUE(transport.Call(0, request, &reply, &call).ok());
  for (int down = 0; down < 3; ++down) {
    EXPECT_TRUE(transport.Call(0, request, &reply, &call).IsUnavailable());
  }
  EXPECT_TRUE(transport.OwnerAlive(0));
  EXPECT_TRUE(transport.Call(0, request, &reply, &call).ok());
  EXPECT_EQ(transport.fault_stats().owner_revivals, 1u);
  EXPECT_EQ(transport.fault_stats().dead_owners, 1u);

  // The redrawn death point is capped by the targeted kill, so the owner
  // dies again within two served messages and flaps through the same
  // exact-width down window.
  int served_after_revival = 1;
  while (transport.Call(0, request, &reply, &call).ok()) {
    ++served_after_revival;
  }
  EXPECT_LE(served_after_revival, 2);
  EXPECT_EQ(transport.fault_stats().dead_owners, 2u);
  for (int down = 0; down < 2; ++down) {
    EXPECT_TRUE(transport.Call(0, request, &reply, &call).IsUnavailable());
  }
  EXPECT_TRUE(transport.OwnerAlive(0));
  EXPECT_EQ(transport.fault_stats().owner_revivals, 2u);
}

// ---- DistOptions validation ----

TEST(DistOptionsTest, ValidateRejectsBadKnobs) {
  DistOptions options;
  EXPECT_TRUE(options.Validate("DistBPA", 0).IsInvalid());
  options = DistOptions{};
  options.window_rows = 0;
  EXPECT_TRUE(options.Validate("DistBPA", 3).IsInvalid());
  options = DistOptions{};
  options.rpc_max_attempts = 0;
  EXPECT_TRUE(options.Validate("DistBPA", 3).IsInvalid());
  options = DistOptions{};
  options.hedge_floor_ms = 0.0;
  EXPECT_TRUE(options.Validate("DistBPA", 3).IsInvalid());
  options = DistOptions{};
  options.rpc_deadline_ms = 0.0;
  EXPECT_TRUE(options.Validate("DistBPA", 3).IsInvalid());
  options = DistOptions{};
  options.hedge_multiplier = 0.5;
  EXPECT_TRUE(options.Validate("DistBPA", 3).IsInvalid());
  options = DistOptions{};
  options.replication_factor = 0;
  EXPECT_TRUE(options.Validate("DistBPA", 3).IsInvalid());
  options = DistOptions{};
  options.breaker_failures = 0;
  EXPECT_TRUE(options.Validate("DistBPA", 3).IsInvalid());
  options = DistOptions{};
  options.breaker_open_ms = -1.0;
  EXPECT_TRUE(options.Validate("DistBPA", 3).IsInvalid());
  options = DistOptions{};
  options.ewma_alpha = 0.0;
  EXPECT_TRUE(options.Validate("DistBPA", 3).IsInvalid());
  options = DistOptions{};
  options.ewma_alpha = 1.5;
  EXPECT_TRUE(options.Validate("DistBPA", 3).IsInvalid());
  options = DistOptions{};
  EXPECT_TRUE(options.Validate("DistBPA", 3).ok());
}

// ---- Wire timeline pin ----

// The exact wire cost of fixed queries: message, byte, round and virtual-time
// totals for fault-free dBPA/dTPUT at R = 1 and R = 2, and the retry/hedge
// counters of one run under a seeded delay/drop plan. Any change to which
// requests the coordinator sends, or in what order, moves these numbers.
struct WireTotals {
  uint64_t messages_sent;
  uint64_t replies_received;
  uint64_t bytes_sent;
  uint64_t bytes_received;
  uint64_t rounds;
  double virtual_ms;
};

void ExpectWire(const DistStats& stats, const WireTotals& want) {
  EXPECT_EQ(stats.messages_sent, want.messages_sent);
  EXPECT_EQ(stats.replies_received, want.replies_received);
  EXPECT_EQ(stats.bytes_sent, want.bytes_sent);
  EXPECT_EQ(stats.bytes_received, want.bytes_received);
  EXPECT_EQ(stats.rounds, want.rounds);
  EXPECT_DOUBLE_EQ(stats.virtual_ms, want.virtual_ms);
}

TEST(DistWireTimelineTest, FaultFreeTotalsArePinned) {
  const Database db = MakeUniformDatabase(2000, 4, 77);
  SumScorer sum;
  const TopKQuery query{500, &sum};
  const WireTotals bpa{104, 104, 22764, 91796, 26, 1.3000000000000005};
  const WireTotals tput{40, 40, 5492, 53736, 3, 0.49999999999999994};
  for (const uint32_t replicas : {1u, 2u}) {
    SCOPED_TRACE(replicas);
    InProcessTransport transport =
        InProcessTransport::PerListOwners(db, replicas);
    DistOptions options;
    options.replication_factor = replicas;
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    ASSERT_TRUE(coordinator.ExecuteBpa(query).ok());
    ExpectWire(coordinator.stats(), bpa);
    ASSERT_TRUE(coordinator.ExecuteTput(query).ok());
    ExpectWire(coordinator.stats(), tput);
  }
}

TEST(DistWireTimelineTest, SeededDelayDropRunIsPinned) {
  const Database db = MakeUniformDatabase(2000, 4, 77);
  SumScorer sum;
  const TopKQuery query{500, &sum};
  InProcessTransport inner = InProcessTransport::PerListOwners(db, 2);
  TransportFaultPlan plan;  // the dist-100k benchmark's delay and drop rates
  plan.seed = 3;
  plan.delay_rate = 0.02;
  plan.drop_rate = 0.005;
  FaultInjectingTransport transport(&inner, plan);
  DistOptions options;
  options.replication_factor = 2;
  Coordinator coordinator(&transport, options);
  ASSERT_TRUE(coordinator.Connect().ok());
  for (const bool tput : {false, true}) {
    SCOPED_TRACE(tput ? "dTPUT" : "dBPA");
    const TopKResult result =
        (tput ? coordinator.ExecuteTput(query) : coordinator.ExecuteBpa(query))
            .ValueOrDie();
    EXPECT_EQ(result.completion, Completion::kExact);
    const DistStats& stats = coordinator.stats();
    const uint64_t want_retries = 0;
    const uint64_t want_hedges = tput ? 1 : 3;
    const uint64_t want_hedge_wins = tput ? 0 : 3;
    const uint64_t want_timeouts = 0;
    const double want_virtual_ms =
        tput ? 5.4999999999999982 : 4.299999999999998;
    EXPECT_EQ(stats.retries, want_retries);
    EXPECT_EQ(stats.hedges, want_hedges);
    EXPECT_EQ(stats.hedge_wins, want_hedge_wins);
    EXPECT_EQ(stats.timeouts, want_timeouts);
    EXPECT_DOUBLE_EQ(stats.virtual_ms, want_virtual_ms);
  }
}

TEST(DistWireTimelineTest, SeededRetryRunIsPinned) {
  // At a 10% drop rate some attempts lose both the primary and its hedge, so
  // the retry, backoff and timeout part of the timeline gets an exact pin
  // too — for both engines at R = 1 and R = 2, and every answer stays exact.
  // (dTPUT at R = 1 sends 47 messages and its hedges rescue every loss, so
  // its pin is zero retries.)
  const Database db = MakeUniformDatabase(2000, 4, 77);
  SumScorer sum;
  const TopKQuery query{500, &sum};
  struct RetryPin {
    uint64_t retries;
    uint64_t timeouts;
    uint64_t hedges;
    uint64_t hedge_wins;
    double virtual_ms;
  };
  // [replicas - 1][tput]
  const RetryPin pins[2][2] = {
      {{2, 2, 14, 13, 30.076152353926151}, {0, 0, 7, 7, 4.5}},
      {{4, 4, 14, 10, 30.665628977963987}, {1, 1, 7, 5, 9.2218546015677063}},
  };
  for (const uint32_t replicas : {1u, 2u}) {
    InProcessTransport inner = InProcessTransport::PerListOwners(db, replicas);
    TransportFaultPlan plan;
    plan.seed = 3;
    plan.delay_rate = 0.02;
    plan.drop_rate = 0.1;
    FaultInjectingTransport transport(&inner, plan);
    DistOptions options;
    options.replication_factor = replicas;
    Coordinator coordinator(&transport, options);
    ASSERT_TRUE(coordinator.Connect().ok());
    for (const bool tput : {false, true}) {
      SCOPED_TRACE(::testing::Message() << (tput ? "dTPUT" : "dBPA")
                                        << " replicas " << replicas);
      const TopKResult result =
          (tput ? coordinator.ExecuteTput(query)
                : coordinator.ExecuteBpa(query))
              .ValueOrDie();
      EXPECT_EQ(result.completion, Completion::kExact);
      const RetryPin& want = pins[replicas - 1][tput];
      const DistStats& stats = coordinator.stats();
      EXPECT_EQ(stats.retries, want.retries);
      EXPECT_EQ(stats.timeouts, want.timeouts);
      EXPECT_EQ(stats.hedges, want.hedges);
      EXPECT_EQ(stats.hedge_wins, want.hedge_wins);
      EXPECT_DOUBLE_EQ(stats.virtual_ms, want.virtual_ms);
    }
  }
}

// ---- Lane clock ----

TEST(DistLaneClockTest, VirtualTimeIsTheLongestLanePerRound) {
  // Fault-free, the coordinator's rounds are the runs of same-type requests
  // (dBPA alternates window and lookup rounds, dTPUT sends windows, drains,
  // lookups). Within a round each list's requests run on the list's lane,
  // so virtual time is the sum over rounds of the longest lane — not the
  // sum of every RPC — on per-list owners and on owners holding two lists.
  const Database db = MakeUniformDatabase(2000, 4, 77);
  SumScorer sum;
  const TopKQuery query{20, &sum};
  AlgorithmOptions memoized;
  memoized.memoize_seen_items = true;
  const TopKResult bpa_reference =
      MakeAlgorithm(AlgorithmKind::kBpa, memoized)->Execute(db, query)
          .ValueOrDie();
  const TopKResult tput_reference =
      MakeAlgorithm(AlgorithmKind::kTput)->Execute(db, query).ValueOrDie();

  for (const bool packed : {false, true}) {
    SCOPED_TRACE(packed ? "two lists per owner" : "one list per owner");
    InProcessTransport inner;
    if (packed) {
      inner.AddOwner(ListOwner(&db, {0, 1}));
      inner.AddOwner(ListOwner(&db, {2, 3}));
    } else {
      inner = InProcessTransport::PerListOwners(db);
    }
    LaneTransport wire(&inner, /*ms_per_owner=*/0.1);
    Coordinator coordinator(&wire, DistOptions{});
    ASSERT_TRUE(coordinator.Connect().ok());
    for (const bool tput : {false, true}) {
      SCOPED_TRACE(tput ? "dTPUT" : "dBPA");
      wire.Clear();
      const TopKResult result =
          (tput ? coordinator.ExecuteTput(query)
                : coordinator.ExecuteBpa(query))
              .ValueOrDie();
      ExpectExactParity(result, tput ? tput_reference : bpa_reference);

      const std::vector<LaneTransport::Exchange>& log = wire.log();
      double longest_lanes_ms = 0.0;
      double every_rpc_ms = 0.0;
      uint64_t rounds = 0;
      for (size_t next = 0; next < log.size(); ++rounds) {
        std::vector<double> lanes(db.num_lists(), 0.0);
        const MessageType type = log[next].type;
        for (; next < log.size() && log[next].type == type; ++next) {
          lanes[log[next].list_index] += log[next].latency_ms;
          every_rpc_ms += log[next].latency_ms;
        }
        longest_lanes_ms += *std::max_element(lanes.begin(), lanes.end());
      }
      const DistStats& stats = coordinator.stats();
      EXPECT_EQ(stats.rounds, rounds);
      EXPECT_EQ(stats.messages_sent, log.size());
      EXPECT_NEAR(stats.virtual_ms, longest_lanes_ms, 1e-9);
      EXPECT_LT(stats.virtual_ms, every_rpc_ms);
    }
  }
}

TEST(DistLaneClockTest, DelayOnlyBpaIsExactWithinTheSla) {
  // The bar of the degradation grid's delay-only dBPA cells: uniform n=5000
  // m=5 k=20, 20% of messages delayed 5 ms, a 250 virtual-ms deadline. With
  // fan-out rounds every query answers exact at R=1 and R=2. Lookups the
  // loop never consumed overshoot its stop by at most one window's rows.
  const size_t m = 5;
  const Database db = MakeUniformDatabase(5000, m, 11);
  SumScorer sum;
  const TopKQuery query{20, &sum};
  AlgorithmOptions memoized;
  memoized.memoize_seen_items = true;
  const TopKResult reference =
      MakeAlgorithm(AlgorithmKind::kBpa, memoized)->Execute(db, query)
          .ValueOrDie();
  const DistOptions defaults;
  const uint64_t max_overshoot = (defaults.window_rows - 1) * m * (m - 1);

  for (const size_t replicas : {size_t{1}, size_t{2}}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "replicas " << replicas << " seed " << seed);
      InProcessTransport inner =
          InProcessTransport::PerListOwners(db, replicas);
      TransportFaultPlan plan;
      plan.seed = seed;
      plan.delay_rate = 0.2;
      plan.delay_ms = 5.0;
      FaultInjectingTransport faults(&inner, plan);
      LaneTransport wire(&faults, /*ms_per_owner=*/0.0);
      DistOptions options;
      options.replication_factor = static_cast<uint32_t>(replicas);
      options.governor.deadline_ms = 250.0;
      Coordinator coordinator(&wire, options);
      ASSERT_TRUE(coordinator.Connect().ok());
      const TopKResult result = coordinator.ExecuteBpa(query).ValueOrDie();

      EXPECT_EQ(result.completion, Completion::kExact);
      ExpectExactParity(result, reference);
      ASSERT_GE(wire.distinct_lookups(), result.stats.random_accesses);
      EXPECT_LE(wire.distinct_lookups() - result.stats.random_accesses,
                max_overshoot);
    }
  }
}

TEST(DistCoordinatorTest, RejectsQueriesBeforeConnect) {
  const Database db = MakeUniformDatabase(50, 3, 2);
  SumScorer sum;
  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  EXPECT_TRUE(coordinator.ExecuteBpa(TopKQuery{3, &sum}).status().IsInvalid());
}

TEST(DistCoordinatorTest, RejectsBadK) {
  const Database db = MakeUniformDatabase(50, 3, 2);
  SumScorer sum;
  InProcessTransport transport = InProcessTransport::PerListOwners(db);
  Coordinator coordinator(&transport, DistOptions{});
  ASSERT_TRUE(coordinator.Connect().ok());
  EXPECT_TRUE(coordinator.ExecuteBpa(TopKQuery{0, &sum}).status().IsInvalid());
  EXPECT_TRUE(
      coordinator.ExecuteBpa(TopKQuery{51, &sum}).status().IsInvalid());
}

}  // namespace
}  // namespace topk
