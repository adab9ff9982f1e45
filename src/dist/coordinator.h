// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Coordinator: the paper's query node in the distributed setting. It runs
// the library's own BPA and TPUT loops (core/bpa_loop.h, core/tput_loop.h)
// over RemoteListIo (dist/remote_list_io.h), the access policy that reaches
// the lists through a pluggable message Transport to ListOwner shards. There
// is one copy of each algorithm: the coordinator itself holds no stop rule,
// only what the wire needs —
//
//  * the catalog handshake (Connect) and list → replica routing;
//  * the robust RPC (ListRpc): every exchange runs under a per-call deadline
//    with a bounded retry budget and deterministic jittered exponential
//    backoff (all charged as virtual milliseconds, on the lane of the list
//    the RPC serves, against the query governor's deadline);
//  * straggler hedging: when an exchange outlasts a p95-derived hedge
//    timeout, kept per owner and message type, the request is re-issued and
//    the earlier reply wins
//    (duplicates are deduped and their bytes counted, as an at-least-once
//    transport forces);
//  * replica groups: with DistOptions::replication_factor = R every list is
//    served by R owner replicas (mirrors of the same immutable list), and a
//    per-replica health tracker (consecutive-failure circuit breaker with
//    seeded half-open probes, EWMA latency) drives a failover ladder per
//    RPC: retry-with-backoff on the primary → hedge to the healthiest
//    sibling replica → abandon the replica (breaker open or retry budget
//    exhausted) and re-route to a survivor, resuming the sorted cursor at
//    the exact window position. Owners are stateless and windows are
//    deterministic functions of the immutable list, so a mid-query replica
//    switch is invisible to the algorithm;
//  * the wire and robustness counters (DistStats).
//
// RemoteListIo batches the loops' accesses so the wire carries few large
// messages in few rounds — sorted access in windows of window_rows rows (in
// TPUT phase 2, kDrains of up to 16 windows with an owner-side threshold
// stop), random access in one lookup vector per list per BPA window of rows
// or TPUT phase 3 — the metrics the distributed top-k literature optimizes
// (messages, bytes and rounds per query). The requests of one round fan out
// concurrently: virtual time charges each round its longest per-list lane,
// not the sum of its RPCs.
//
// Only when a WHOLE replica group is dead does a list die. The BPA or TPUT
// loop then returns Unavailable, and the coordinator runs the NRA loop on
// the same policy — the single-node failover discipline: dead lists stay
// dead, spent accesses and virtual time carry over, survivors re-scan from
// position 1 — returning a θ-certified anytime answer tagged
// Completion::kListFailure. A dying cluster still answers inside the SLA.
//
// A query starts and ends with the single-node code (ValidateTopKQuery and
// FinishTopKResult, core/topk_algorithm.h), so StrictMode, the exact
// certificate and execution_cost hold as on a single node. The options are
// validated once, by Connect.
//
// Determinism: fault-free distributed BPA/TPUT return byte-identical
// items/scores/stop depths/access counts to the single-node engine (the
// same loops; dBPA is memoized BPA's twin), and a faulted run replays
// message-for-message from the transport fault plan's seed plus
// DistOptions::backoff_seed.

#ifndef TOPK_DIST_COORDINATOR_H_
#define TOPK_DIST_COORDINATOR_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "core/execution_context.h"
#include "core/query_governor.h"
#include "core/topk_result.h"
#include "dist/remote_list_io.h"
#include "dist/transport.h"
#include "lists/scorer.h"
#include "lists/types.h"

namespace topk {

/// Knobs of one coordinator. A default-constructed DistOptions is valid for
/// any transport with at least one owner.
struct DistOptions {
  /// Sorted-access batching: rows fetched per kSortedWindow message. A
  /// TPUT phase-2 kDrain fetches up to 16 windows (its owner-side threshold
  /// stop, not the cap, decides how many rows it ships).
  uint32_t window_rows = 64;

  /// Per-RPC deadline in virtual milliseconds: what a lost message or dead
  /// owner costs the caller per attempt before the next retry fires.
  double rpc_deadline_ms = 5.0;

  /// Retry budget: total attempts per RPC (the first try included). An RPC
  /// whose budget is exhausted declares the owner permanently dead.
  int rpc_max_attempts = 4;

  /// Backoff before retry attempt a (1-based): backoff_base_ms * 2^(a-1),
  /// scaled by a deterministic jitter in [1, 1.5) drawn from backoff_seed.
  double backoff_base_ms = 0.5;
  uint64_t backoff_seed = 1;

  /// Straggler hedging: when an exchange outlasts its hedge timeout —
  /// hedge_multiplier times the observed p95 latency of the owner's
  /// exchanges of the same message type, never below hedge_floor_ms — the
  /// request is re-issued and the earlier reply wins.
  bool hedging = true;
  double hedge_floor_ms = 1.0;
  double hedge_multiplier = 3.0;

  /// Replica groups: every list must be claimed by exactly this many owners
  /// (Connect() groups the claims). 1 — the default — is the unreplicated
  /// PR 8 topology; the health tracker and failover ladder are then inert
  /// (one replica is always "the healthiest") and behavior is unchanged.
  uint32_t replication_factor = 1;

  /// Per-replica circuit breaker: this many CONSECUTIVE failed attempts
  /// open the breaker; a replica with an open breaker is routed around
  /// while a sibling is available instead of burning retry budget on it.
  int breaker_failures = 3;

  /// How long (virtual ms) an open breaker stays open before a half-open
  /// probe is allowed, scaled by a deterministic jitter in [1, 1.5) drawn
  /// from health_seed. A successful probe closes the breaker; a failed one
  /// re-opens it for another window.
  double breaker_open_ms = 10.0;

  /// EWMA smoothing for per-replica observed latency (the healthiest-replica
  /// routing signal): ewma ← alpha * sample + (1 - alpha) * ewma. In (0, 1].
  double ewma_alpha = 0.3;

  /// Seed of the health tracker's jittered breaker windows.
  uint64_t health_seed = 1;

  /// Per-query execution limits, enforced by the algorithm loops at their
  /// round boundaries exactly as on a single node. RPC latencies, backoff
  /// waits and timeout waits all charge the deadline as virtual
  /// milliseconds.
  GovernorLimits governor;

  /// Validates the options for `algorithm` over a transport with
  /// `num_owners` owners; messages name the algorithm, knob and value.
  Status Validate(const char* algorithm, size_t num_owners) const;
};

/// Per-query wire and robustness counters — what the distributed literature
/// benchmarks, plus what the fault machinery actually did.
struct DistStats {
  uint64_t messages_sent = 0;
  uint64_t replies_received = 0;  ///< incl. duplicate deliveries
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;  ///< incl. duplicate deliveries
  /// Round trips: barrier phases that sent a message — per dBPA window of
  /// rows a refill round and a lookup round, per dTPUT phase one round, per
  /// degraded-NRA window sweep one round.
  uint64_t rounds = 0;
  uint64_t retries = 0;         ///< re-attempts after a lost/failed exchange
  uint64_t hedges = 0;          ///< hedge requests issued
  uint64_t hedge_wins = 0;      ///< hedges whose reply beat the primary's
  uint64_t duplicate_replies = 0;  ///< extra reply copies deduped
  uint64_t timeouts = 0;           ///< attempts that cost the full RPC deadline
  uint32_t owner_deaths = 0;       ///< owners declared permanently dead
  uint64_t replica_failovers = 0;  ///< RPCs re-routed to a sibling replica
  uint64_t breaker_opens = 0;      ///< circuit-breaker open transitions
  uint64_t probes_sent = 0;        ///< half-open health probes issued
  uint32_t groups_lost = 0;        ///< lists whose whole replica group died
  /// Virtual time charged to the deadline: the sum over rounds of each
  /// round's longest lane (its slowest list's RPCs, retries and waits).
  double virtual_ms = 0.0;
};

class Coordinator {
 public:
  /// Binds to `transport` (not owned; must outlive the coordinator).
  Coordinator(Transport* transport, const DistOptions& options);

  /// Validates the (immutable) options, then runs the catalog handshake: one
  /// kHello per owner. Fails unless every list index 0..m-1 is claimed by
  /// exactly replication_factor owners (its replica group, ordered by owner
  /// index), the replicas of each group advertise identical catalogs (same
  /// max/min scores — mirrors of the same immutable list), and all lists
  /// agree on n. Must succeed before the Execute calls. The handshake's
  /// messages are connection setup: each Execute call resets DistStats, so
  /// they appear in stats() only until the first query runs.
  Status Connect();

  size_t num_lists() const { return replicas_of_.size(); }
  size_t num_items() const { return n_; }

  /// The score floor the answers are certified against (DeriveScoreFloor of
  /// the owners' catalogs: 0 lowered to the smallest advertised min score).
  Score score_floor() const { return floor_; }

  /// Distributed BPA: the BPA loop over RemoteListIo — two fan-out rounds
  /// per window of rows: sorted windows, then one lookup batch per list for
  /// every item the window's rows see first; the paper's λ (best-position)
  /// stop rule runs row by row on the coordinator. Any scorer. Fault-free
  /// results are byte-identical to single-node BPA with seen-item
  /// memoization (only lookups for rows past the stop, at most one window's
  /// worth, are sent and never consumed); a lost list degrades to NRA over
  /// the survivors.
  Result<TopKResult> ExecuteBpa(const TopKQuery& query);

  /// Distributed TPUT: the TPUT loop over RemoteListIo — the three-phase
  /// protocol (top-k prefixes; drain to τ1/m via kDrain messages whose
  /// threshold stop runs owner-side; batched random-access resolution of the
  /// τ2 survivors), one round per phase, its lists' requests fanned out
  /// concurrently. Summation scoring only. Fault-free results are
  /// byte-identical to single-node TPUT; a lost list degrades to NRA over
  /// the survivors.
  Result<TopKResult> ExecuteTput(const TopKQuery& query);

  /// Wire/robustness counters of the last Execute call.
  const DistStats& stats() const { return stats_; }

  /// True while at least one replica of `list_index`'s group has not been
  /// declared dead — a list only dies with its whole replica group.
  bool ListAlive(size_t list_index) const {
    for (size_t owner : replicas_of_[list_index]) {
      if (owner_alive_[owner] != 0) return true;
    }
    return false;
  }

 private:
  // The access policy routes its windows and lookups through ListRpc and
  // reads the catalog, the options and the round/virtual-time counters.
  friend class RemoteListIo;

  /// Per-replica health, reset per query: a consecutive-failure circuit
  /// breaker (closed → open after breaker_failures straight failures; open →
  /// half-open when a seeded jittered window elapses and a probe fires;
  /// half-open → closed on probe success, back to open on failure) plus an
  /// EWMA of observed attempt latency for healthiest-replica routing.
  struct ReplicaHealth {
    enum Breaker : uint8_t { kClosed = 0, kOpen = 1, kHalfOpen = 2 };
    Breaker breaker = kClosed;
    int consecutive_failures = 0;
    double open_until_ms = 0.0;  ///< virtual time the open window ends
    double ewma_ms = 0.0;
    bool ewma_set = false;
  };

  /// The last kSamples successful latencies of one owner's exchanges of one
  /// MessageType — a drain's reply is many windows long, so drains do not
  /// share a timer with windows or lookups. Kept
  /// both in arrival order (to evict the oldest) and sorted, so the hedge
  /// timer reads its percentile in O(1) instead of selecting it per attempt.
  struct LatencyRing {
    static constexpr size_t kSamples = 64;
    double arrival[kSamples] = {};
    double sorted[kSamples] = {};
    uint32_t count = 0;  ///< samples recorded, including evicted ones

    void Record(double latency_ms);
    /// The p95 sample: in a full ring the 60th of 64 in ascending order.
    /// Requires count > 0.
    double P95() const;
  };

  static constexpr size_t kNoList = static_cast<size_t>(-1);

  /// Fresh DistStats, backoff draws, owner liveness, latency rings and
  /// replica health; runs before the handshake and before every query.
  void ResetQueryState();

  /// Runs a query with the single-node start and finish
  /// (core/topk_algorithm.h) around the BPA (or TPUT) loop over
  /// RemoteListIo, and the NRA degrade when the loop lost a list.
  Result<TopKResult> Execute(const char* engine, const TopKQuery& query,
                             bool bpa);

  // --- RPC machinery (retry / backoff / hedging / death) ---

  /// One raw exchange with full wire accounting. Fills `reply` on success.
  Status Send(size_t owner, const Request& request, Reply* reply,
              CallResult* outcome);

  /// One attempt = primary send, hedged when its outcome (reply latency, or
  /// the full RPC deadline for a loss) outlasts the owner's hedge timeout.
  /// The hedge goes to `hedge_owner` — the primary itself when unreplicated,
  /// the healthiest live sibling replica otherwise. On success `*latency_ms`
  /// is the attempt's effective latency.
  Status Attempt(size_t owner, size_t hedge_owner, const Request& request,
                 Reply* reply, double* latency_ms);

  /// The robust per-owner RPC: bounded attempts with jittered exponential
  /// backoff. When `allow_breaker_failover` and the owner's breaker opens
  /// mid-RPC while a breaker-closed sibling of `list` exists, it returns
  /// Unavailable WITHOUT killing the owner (a recoverable failover — the
  /// breaker's whole point); otherwise exhausting the budget kills the owner
  /// and fails Unavailable. All waits charge stats_.virtual_ms.
  Status OwnerRpc(size_t owner, size_t list, const Request& request,
                  Reply* reply, bool allow_breaker_failover);

  /// The list-level RPC RemoteListIo calls: PickReplica → OwnerRpc,
  /// laddering across the replica group (each breaker failover or owner
  /// death re-routes to the next-healthiest survivor) until one replica
  /// answers or the whole group is dead (Unavailable → the degrade path).
  Status ListRpc(size_t list, const Request& request, Reply* reply);

  /// hedge_multiplier times the p95 of the owner's `type` exchanges, never
  /// below hedge_floor_ms.
  double HedgeTimeoutMs(size_t owner, MessageType type) const;
  void RecordLatency(size_t owner, MessageType type, double latency_ms);
  void KillOwner(size_t owner);

  // --- replica health (inert at replication_factor = 1) ---

  /// Routing decision for `list`: fires any due half-open probes for the
  /// group, then keeps the sticky primary while it is alive with a closed
  /// breaker; otherwise re-picks deterministically — prefer closed breakers,
  /// then lowest EWMA latency (unseen replicas sort first), then lowest
  /// owner index — and updates the sticky primary.
  size_t PickReplica(size_t list);

  /// The hedge target for an RPC to `owner` serving `list`: the healthiest
  /// live non-open sibling replica, or `owner` itself when there is none
  /// (self-hedging — PR 8's behavior).
  size_t HedgeTarget(size_t owner, size_t list) const;

  /// True when `list` has a live breaker-closed replica other than `owner` —
  /// the condition under which abandoning `owner` is a failover, not a death.
  bool HasClosedAlternative(size_t list, size_t owner) const;

  bool ProbeDue(size_t owner) const;
  void SendProbe(size_t owner);
  void RecordOutcome(size_t owner, bool success);
  double HealthJitter();

  Transport* transport_;
  DistOptions options_;

  // Catalog (filled by Connect).
  std::vector<std::vector<size_t>> replicas_of_;  // list -> owners, asc order
  std::vector<std::vector<size_t>> lists_of_;     // owner -> lists it serves
  std::vector<Score> max_score_;     // list index -> advertised max
  std::vector<Score> min_score_;     // list index -> advertised min
  std::vector<uint8_t> owner_alive_;  // owner -> not yet declared dead
  size_t n_ = 0;
  Score floor_ = 0.0;
  bool connected_ = false;

  // Per-query state (reset by Execute; storage retained).
  DistStats stats_;
  uint64_t backoff_counter_ = 0;
  ExecutionContext context_;  // the loops' scratch and the query governor
  RemoteListIo::Buffers remote_;

  // Replica health (reset by Execute).
  std::vector<ReplicaHealth> health_;        // per owner
  std::vector<size_t> primary_of_;           // list -> sticky routed replica
  std::vector<uint8_t> group_lost_counted_;  // list -> groups_lost tallied
  uint64_t health_counter_ = 0;              // jitter draw counter

  // Latency rings feeding the p95 hedge timeout: owner-major, one per
  // MessageType.
  std::vector<LatencyRing> latency_rings_;

  // RPC scratch.
  Request request_;
  Reply reply_;
  Reply hedge_reply_;
  Request probe_request_;
  Reply probe_reply_;
};

}  // namespace topk

#endif  // TOPK_DIST_COORDINATOR_H_
