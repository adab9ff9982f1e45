// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// dist-100k: a closed loop of dBPA and dTPUT queries through a Coordinator
// over uniform data, n = 100k, m = 5. Every list has R = 2 in-process owner
// replicas behind a seeded FaultInjectingTransport (2% of messages delayed,
// 0.5% dropped), so hedges and retries fire while answers stay exact. The
// coordinator, transport and owners do all the work, and the two engines
// use the transport in opposite ways: dBPA sends many small messages over
// thousands of rounds, dTPUT few large ones.
//
// The stack, from the coordinator down:
//   MeteredTransport (link model: + bytes / bandwidth; counts by type)
//   FaultInjectingTransport (seeded delays and drops)
//   MeteredTransport (times each owner's Serve)
//   InProcessTransport (the ListOwner replicas)
//
// qps and the latency percentiles are over the distributed queries alone.
// Each cycle also runs BPA2, TA, NRA and CA single-node on the same data
// through ExecuteInto, only so that their per-algorithm latencies have a
// value on this workload too; they enter no other metric.
//
// Every query is followed by a SpeedGauge sample, and every query's time is
// scaled by the gauge's latest window, about a second (see SpeedGauge).

#include <algorithm>
#include <array>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "dist/coordinator.h"
#include "dist/fault_injecting_transport.h"
#include "dist/in_process_transport.h"
#include "layers.h"
#include "metered_transport.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kN = 100'000;
constexpr size_t kM = 5;
constexpr size_t kReplicas = 2;
constexpr size_t kSetups = 9;
// 100 Mbit/s: a 64-row window reply (~800 bytes) costs about as much wire
// time as the in-process transport's flat 0.05 ms per call.
constexpr double kLinkBytesPerMs = 12'500.0;

// Each cycle runs every cell this many times, each time with its own
// seeded k in [min_k, kMaxK], stratified: copy i of c draws from the i-th
// of c equal slices of the range. Many distinct k per run, so no one
// query's data-dependent depth sets a median, and every run covers the
// range alike. The single-node cells take k from [40, 50]: there a seed's
// data moves the stop depth least (NRA's by 5% over twelve seeds at k = 50,
// against 7% at k = 30 and 10% at k = 10), and these cells exist only to
// give their algorithm's latency a value.
struct CellWeight {
  AlgorithmKind kind;
  int copies;
  uint32_t min_k;
};
constexpr uint32_t kMinK = 10;
constexpr uint32_t kSingleNodeMinK = 40;
constexpr uint32_t kMaxK = 50;
constexpr CellWeight kCells[] = {
    {AlgorithmKind::kBpa, 12, kMinK},
    {AlgorithmKind::kTput, 12, kMinK},
    {AlgorithmKind::kBpa2, 4, kSingleNodeMinK},
    {AlgorithmKind::kTa, 8, kSingleNodeMinK},
    {AlgorithmKind::kNra, 4, kSingleNodeMinK},
    {AlgorithmKind::kCa, 4, kSingleNodeMinK},
};

bool IsDistributed(AlgorithmKind kind) {
  return kind == AlgorithmKind::kBpa || kind == AlgorithmKind::kTput;
}

std::vector<QuerySpec> Cycle(topk::Rng* rng) {
  std::vector<QuerySpec> cycle;
  for (const CellWeight& cell : kCells) {
    for (int c = 0; c < cell.copies; ++c) {
      const double slice = (c + rng->NextDouble()) / cell.copies;
      const uint32_t k = cell.min_k + static_cast<uint32_t>(
                                          slice * (kMaxK - cell.min_k + 1));
      cycle.push_back(QuerySpec{cell.kind, std::min(k, kMaxK), 0});
    }
  }
  rng->Shuffle(&cycle);
  return cycle;
}

/// The program under test. Members are declared in stack order: each layer
/// points at the one declared before it.
struct Instance {
  std::unique_ptr<topk::Database> db;
  std::unique_ptr<topk::InProcessTransport> owners;
  std::unique_ptr<MeteredTransport> owner_meter;
  std::unique_ptr<topk::FaultInjectingTransport> faults;
  std::unique_ptr<MeteredTransport> link;
  std::unique_ptr<topk::Coordinator> coordinator;
  std::unique_ptr<SingleNodeRunner> runner;
};

std::unique_ptr<Instance> SetUp(const ScoreColumns& columns, uint64_t seed,
                                double* build_s) {
  auto in = std::make_unique<Instance>();
  const Clock::time_point t0 = Clock::now();
  in->db = std::make_unique<topk::Database>(BuildDatabase(columns));
  *build_s = MsBetween(t0, Clock::now()) / 1000.0;
  in->owners = std::make_unique<topk::InProcessTransport>(
      topk::InProcessTransport::PerListOwners(*in->db, kReplicas));
  in->owner_meter = std::make_unique<MeteredTransport>(in->owners.get(), 0.0);
  topk::TransportFaultPlan plan;
  plan.seed = seed;
  plan.delay_rate = 0.02;
  plan.drop_rate = 0.005;
  in->faults = std::make_unique<topk::FaultInjectingTransport>(
      in->owner_meter.get(), plan);
  in->link =
      std::make_unique<MeteredTransport>(in->faults.get(), kLinkBytesPerMs);
  topk::DistOptions options;
  options.replication_factor = kReplicas;
  in->coordinator =
      std::make_unique<topk::Coordinator>(in->link.get(), options);
  in->runner = std::make_unique<SingleNodeRunner>(in->db.get());
  return in;
}

/// Connects and warms up: one query of each engine, one of each algorithm.
topk::Status Start(Instance* in) {
  const topk::Status connected = in->coordinator->Connect();
  if (!connected.ok()) return connected;
  const topk::SumScorer sum;
  const topk::TopKQuery query{kMinK, &sum};
  for (const CellWeight& cell : kCells) {
    if (IsDistributed(cell.kind)) {
      const auto r = cell.kind == AlgorithmKind::kBpa
                         ? in->coordinator->ExecuteBpa(query)
                         : in->coordinator->ExecuteTput(query);
      if (!r.ok()) return r.status();
    } else {
      std::string error;
      in->runner->Run(QuerySpec{cell.kind, kMinK, 0}, sum, &error);
    }
  }
  return topk::Status::OK();
}

/// One distributed query as the benchmark observed it.
struct DistSample {
  QuerySpec spec;
  double ms = 0.0;            // Execute* wall time, unscaled
  double transport_ms = 0.0;  // wall time inside the link's Call
  topk::DistStats stats;
  topk::AccessStats access;
  topk::Position depth = 0;
  MeteredTransport::PerType link;  // this query's totals at the link
};

struct LoopOutcome {
  // Scaled distributed queries per second: the median over the cycles, so
  // a stall of a few seconds does not set a run's throughput.
  double qps = 0.0;
  std::vector<DistSample> dist;
  std::vector<QuerySample> single;
  LatencyBook dist_latencies;    // scaled; every end-to-end latency metric
  LatencyBook single_latencies;  // scaled; bpa2_ms, ta_ms, nra_ms, ca_ms
  Histogram raw_dist_ms;         // unscaled, for the detail section
  // Per-type link and owner totals over the loop.
  std::array<MeteredTransport::PerType, kMessageTypes> link{}, owner{};
};

void AddTypes(std::array<MeteredTransport::PerType, kMessageTypes>* into,
              const std::array<MeteredTransport::PerType, kMessageTypes>& now,
              const std::array<MeteredTransport::PerType, kMessageTypes>& was) {
  for (size_t t = 0; t < kMessageTypes; ++t) {
    (*into)[t].calls += now[t].calls - was[t].calls;
    (*into)[t].bytes += now[t].bytes - was[t].bytes;
    (*into)[t].rows += now[t].rows - was[t].rows;
    (*into)[t].virtual_ms += now[t].virtual_ms - was[t].virtual_ms;
    (*into)[t].wall_ms += now[t].wall_ms - was[t].wall_ms;
  }
}

/// Runs one distributed query and checks it; false if it failed.
bool RunDistributed(const QuerySpec& spec, const topk::Scorer& sum,
                    const Oracle& oracle, Instance* in, LoopOutcome* out,
                    double* ms, bool* exact, std::string* error) {
  const auto link_before = in->link->by_type();
  const auto owner_before = in->owner_meter->by_type();
  const MeteredTransport::PerType total_before = in->link->Total();
  const topk::TopKQuery query{spec.k, &sum};
  const Clock::time_point t0 = Clock::now();
  const auto r = spec.kind == AlgorithmKind::kBpa
                     ? in->coordinator->ExecuteBpa(query)
                     : in->coordinator->ExecuteTput(query);
  *ms = MsBetween(t0, Clock::now());
  if (!r.ok()) {
    *error = r.status().ToString();
    return false;
  }
  const topk::TopKResult& result = r.ValueUnsafe();
  *error = oracle.Check(0, spec.k, result);
  *exact = result.completion == topk::Completion::kExact;
  DistSample s;
  s.spec = spec;
  s.ms = *ms;
  s.stats = in->coordinator->stats();
  s.access = result.stats;
  s.depth = result.stop_position;
  const MeteredTransport::PerType total = in->link->Total();
  s.link.calls = total.calls - total_before.calls;
  s.link.bytes = total.bytes - total_before.bytes;
  s.link.rows = total.rows - total_before.rows;
  s.link.virtual_ms = total.virtual_ms - total_before.virtual_ms;
  s.transport_ms = total.wall_ms - total_before.wall_ms;
  out->dist.push_back(s);
  AddTypes(&out->link, in->link->by_type(), link_before);
  AddTypes(&out->owner, in->owner_meter->by_type(), owner_before);
  return error->empty();
}

LoopOutcome RunLoop(double seconds, const topk::Scorer& sum,
                    const Oracle& oracle, Instance* in, SpeedGauge* gauge,
                    topk::Rng* rng, Report* report) {
  LoopOutcome out;
  const Clock::time_point start = Clock::now();
  const double budget_ms = seconds * 1000.0;
  std::vector<double> cycle_qps;
  do {
    double dist_ms = 0.0;
    size_t dist_queries = 0;
    for (const QuerySpec& spec : Cycle(rng)) {
      ++report->attempted;
      std::string error;
      bool exact = true;
      double ms = 0.0;
      bool answered = false;
      if (IsDistributed(spec.kind)) {
        answered =
            RunDistributed(spec, sum, oracle, in, &out, &ms, &exact, &error);
      } else {
        QuerySample sample = in->runner->Run(spec, sum, &error);
        if (error.empty()) {
          error = oracle.Check(0, spec.k, in->runner->last());
        }
        ms = sample.ms;
        exact = sample.exact;
        answered = error.empty();
        out.single.push_back(sample);
      }
      if (!error.empty()) {
        report->Fail(std::string(AlgoStem(spec.kind)) + ": " + error);
      }
      if (!error.empty() || !exact) ++report->failed;
      gauge->Sample();
      if (!answered) continue;
      const double scaled = ms * gauge->Scale();
      if (IsDistributed(spec.kind)) {
        out.dist_latencies.Add(spec.kind, scaled);
        out.raw_dist_ms.Add(ms);
        dist_ms += scaled;
        ++dist_queries;
      } else {
        out.single_latencies.Add(spec.kind, scaled);
      }
    }
    if (dist_queries > 0) {
      cycle_qps.push_back(1000.0 * dist_queries / dist_ms);
    }
  } while (MsBetween(start, Clock::now()) < budget_ms);
  out.qps = Median(cycle_qps);
  return out;
}

JsonObject DistWork(const std::vector<DistSample>& samples) {
  uint64_t messages = 0, bytes = 0, rounds = 0, sorted = 0, random = 0;
  uint64_t depth = 0;
  double virtual_ms = 0.0;
  for (const DistSample& s : samples) {
    messages += s.link.calls;
    bytes += s.link.bytes;
    rounds += s.stats.rounds;
    sorted += s.access.sorted_accesses;
    random += s.access.random_accesses;
    depth += s.depth;
    virtual_ms += s.stats.virtual_ms;
  }
  return JsonObject()
      .Int("queries", samples.size())
      .Int("messages", messages)
      .Int("bytes", bytes)
      .Int("rounds", rounds)
      .Int("sorted_accesses", sorted)
      .Int("random_accesses", random)
      .Int("stop_depth_sum", depth)
      .Num("virtual_ms", virtual_ms);
}

}  // namespace

void RunDist100k(const RunConfig& config, Report* report) {
  const ScoreColumns columns = UniformScores(kN, kM, config.seed);

  SpeedGauge gauge;
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Instance> instance;
  for (size_t i = 0; i < kSetups; ++i) {
    instance.reset();
    const Clock::time_point t0 = Clock::now();
    double build = 0.0;
    instance = SetUp(columns, config.seed, &build);
    const topk::Status started = Start(instance.get());
    if (!started.ok()) {
      report->Fail("coordinator start: " + started.ToString());
      return;
    }
    const double took_s = MsBetween(t0, Clock::now()) / 1000.0;
    setup_s.push_back(took_s * gauge.Resample());
    build_s.push_back(build);
  }

  topk::Rng rng(config.seed ^ 0xd157ULL);
  const ScorerSet scorers(kM, 0, &rng);
  const Oracle oracle(*instance->db, scorers, kMaxK);

  // A traced run measures its first half untraced, for the overhead.
  Report untraced_half;
  Report* counted = config.trace ? &untraced_half : report;
  const double seconds = config.trace ? config.seconds / 2 : config.seconds;
  const LoopOutcome loop = RunLoop(seconds, scorers.at(0), oracle,
                                   instance.get(), &gauge, &rng, counted);

  // The first cycle is a fixed query sequence through a seeded fault
  // schedule and a virtual clock: its counters repeat exactly. Samples keep
  // loop order within each side, so the cycle splits by its composition.
  {
    size_t dist_first = 0, single_first = 0;
    for (const CellWeight& cell : kCells) {
      (IsDistributed(cell.kind) ? dist_first : single_first) += cell.copies;
    }
    const std::vector<DistSample> dist(
        loop.dist.begin(),
        loop.dist.begin() + std::min(dist_first, loop.dist.size()));
    const std::vector<QuerySample> single(
        loop.single.begin(),
        loop.single.begin() + std::min(single_first, loop.single.size()));
    report->detail.Obj("work", JsonObject()
                                   .Obj("distributed", DistWork(dist))
                                   .Obj("single_node", SingleNodeWork(single)));
  }

  if (!config.trace) {
    std::vector<double> bpa_virtual, tput_virtual;
    for (const DistSample& s : loop.dist) {
      (s.spec.kind == AlgorithmKind::kBpa ? bpa_virtual : tput_virtual)
          .push_back(s.stats.virtual_ms);
    }
    AddRunMetrics(setup_s, loop.qps, report);
    loop.dist_latencies.AddMetrics(report);
    loop.single_latencies.AddAlgorithmMetrics("single_node_answers", report);
    report->detail.Obj(
        "speed_gauge",
        JsonObject()
            .Num("reference_ms", SpeedGauge::kReferenceMs)
            .Num("median_ms", gauge.MedianMs())
            .Num("unscaled_latency_p50_ms", loop.raw_dist_ms.Quantile(0.5)));
    report->Set("bpa_virtual_ms", Median(bpa_virtual));
    report->Set("tput_virtual_ms", Median(tput_virtual));
    return;
  }

  instance->link->StartTiming();
  instance->owner_meter->StartTiming();
  const LoopOutcome traced = RunLoop(config.seconds / 2, scorers.at(0), oracle,
                                     instance.get(), &gauge, &rng, report);

  const double queries = std::max<double>(1.0, traced.dist.size());
  double self_ms = 0, rounds = 0, retries = 0, hedges = 0, hedge_wins = 0,
         timeouts = 0, failovers = 0, messages = 0, bytes = 0, rows = 0;
  for (const DistSample& s : traced.dist) {
    self_ms += s.ms - s.transport_ms;
    rounds += s.stats.rounds;
    retries += s.stats.retries;
    hedges += s.stats.hedges;
    hedge_wins += s.stats.hedge_wins;
    timeouts += s.stats.timeouts;
    failovers += s.stats.replica_failovers;
    messages += s.link.calls;
    bytes += s.link.bytes;
  }
  report->Set("dist.coordinator.self_ms", self_ms / queries);
  report->Set("dist.coordinator.rounds", rounds / queries);
  report->Set("dist.coordinator.retries", retries / queries);
  report->Set("dist.coordinator.hedges", hedges / queries);
  report->Set("dist.coordinator.hedge_wins", hedge_wins / queries);
  report->Set("dist.coordinator.timeouts", timeouts / queries);
  report->Set("dist.coordinator.replica_failovers", failovers / queries);
  report->Set("dist.transport.messages_per_query", messages / queries);
  report->Set("dist.transport.bytes_per_query", bytes / queries);
  for (size_t t = 0; t < kMessageTypes; ++t) {
    const std::string type = kMessageTypeNames[t];
    const MeteredTransport::PerType& link = traced.link[t];
    const MeteredTransport::PerType& owner = traced.owner[t];
    report->Set("dist.transport.calls." + type, link.calls / queries);
    report->Set("dist.transport.virtual_ms." + type,
                link.virtual_ms / queries);
    report->Set("dist.owner.serve_us." + type,
                owner.calls > 0 ? owner.wall_ms * 1000.0 / owner.calls : 0.0);
    rows += owner.rows;
  }
  report->Set("dist.owner.rows_served_per_query", rows / queries);
  AddSingleNodeLayers(*instance->db, scorers, traced.single, report);
  AddTraceMetrics(untraced_half, loop.qps, traced.qps, build_s,
                  DatabaseMb(*instance->db), report);
}

}  // namespace perfbench
