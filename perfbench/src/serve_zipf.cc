// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// serve-zipf: a closed loop against TopKServer on zipf data, n = 100k, m = 5
// (about 20 MB: beyond a core's L2, inside the shared L3). One generator
// thread keeps 2 x workers requests in flight; the server runs nproc - 1
// workers. Zipf stops at depth ~40, so most requests do ~10 us of algorithm
// work and the server's admission, wake-up and delivery dominate, while
// the pool family's deepest case (CA at k = 50: ~0.9 ms) sets the latency
// tail.
//
// No request carries a deadline: every answer must come back exact, so a
// run's failed count is 0 and does not follow the host's timing.
//
// The loop is closed because an open loop was not steady on a shared
// 4-vCPU host: five 20 s runs at a fixed 800 q/s gave p50 from 0.56 to
// 1.86 ms, with the generator itself up to 32 ms late.
//
// The generator samples a SpeedGauge every 50 ms; every latency and every
// second's answer count is scaled by the gauge's latest window.

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "core/topk_server.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr size_t kN = 100'000;
constexpr size_t kM = 5;
constexpr size_t kWeightedScorers = 32;
constexpr size_t kSetups = 9;
// A gauge sample every 50 ms: the window spans 1.6 s, and the generator
// spends 0.2% of its time on the gauge.
constexpr auto kGaugeEvery = std::chrono::milliseconds(50);
constexpr uint32_t kKs[] = {10, 20, 50};
// NRA's own k. Its stop depth on this data jumps with k and the seed's
// data: over 120 seeds, NRA took at most 0.05 ms at k = 5 and 10 and 2 ms
// at k = 15, but 2 to 82 ms at k = 12 on every seed, and up to 77 and 93 ms
// at k = 20 and 30 on a few. One such seed's qps came out 20x lower.
constexpr uint32_t kNraKs[] = {5, 10, 15};

/// Request mix, in requests per 100: mostly the buffer family, with the
/// deep cases a few percent. Within an algorithm every k is equally likely,
/// and half the requests use a weighted sum. TPUT takes sum scoring only;
/// NRA runs sum scoring only, because its weighted sums take the O(pool)
/// non-sum path: up to ~40 ms each on this data.
struct MixEntry {
  AlgorithmKind kind;
  int per_100;
};
constexpr MixEntry kMix[] = {
    {AlgorithmKind::kBpa, 30}, {AlgorithmKind::kBpa2, 24},
    {AlgorithmKind::kTa, 24},  {AlgorithmKind::kCa, 8},
    {AlgorithmKind::kTput, 8}, {AlgorithmKind::kNra, 6},
};
// The schedule holds the mix exactly, 48 times over, in seeded order.
constexpr int kMixRepeats = 48;

std::vector<QuerySpec> Schedule(topk::Rng* rng) {
  std::vector<QuerySpec> schedule;
  for (const MixEntry& e : kMix) {
    const int count = e.per_100 * kMixRepeats;
    for (int i = 0; i < count; ++i) {
      QuerySpec spec;
      spec.kind = e.kind;
      const uint32_t* ks = e.kind == AlgorithmKind::kNra ? kNraKs : kKs;
      spec.k = ks[i % std::size(kKs)];
      const bool weighted = e.kind != AlgorithmKind::kTput &&
                            e.kind != AlgorithmKind::kNra &&
                            (i / std::size(kKs)) % 2 == 1;
      spec.scorer = weighted ? 1 + static_cast<uint32_t>(
                                       rng->NextBounded(kWeightedScorers))
                             : 0;
      schedule.push_back(spec);
    }
  }
  rng->Shuffle(&schedule);
  return schedule;
}

/// The program under test: database plus a started, warmed server. The
/// server is declared last, so it stops before the database goes.
struct Instance {
  std::unique_ptr<topk::Database> db;
  std::unique_ptr<topk::TopKServer> server;
};

struct Delivery {
  uint32_t index;  // into the schedule
  Clock::time_point submitted;
  Clock::time_point delivered;
  topk::Result<topk::TopKResult> result;
};

/// Completions handed from worker callbacks to the generator thread. The
/// generator polls `count` instead of sleeping on a condition variable: it
/// has a core of its own (the server runs nproc - 1 workers), and on a
/// shared host waking a sleeping core costs a varying, often large, share
/// of a 30 us request. Polling leaves the server's own wake-ups as the only
/// ones the loop measures.
struct Mailbox {
  std::mutex mu;
  std::vector<Delivery> done;
  std::atomic<size_t> count{0};  // done.size(), readable without the lock
};

struct LoopOutcome {
  double wall_ms = 0.0;
  // Scaled answers delivered in each whole second of the loop. qps is their
  // median, so a stall of a few seconds does not set a run's throughput.
  std::vector<double> per_second;
  LatencyBook latencies;  // Submit to callback, delivered answers, scaled
  RunningMean bpa_cost, tput_cost;  // paper cost as*cs + (ar+ad)*cr, ms
  // Traced half only:
  std::vector<QuerySample> samples;  // service time = TopKResult::elapsed_ms
  Histogram wait_ms;                 // latency minus service time
  std::vector<double> admit_us;      // SubmitWithCallback call time
};

LoopOutcome RunLoop(double seconds, bool traced, size_t in_flight_target,
                    const std::vector<QuerySpec>& schedule, size_t* cursor,
                    const ScorerSet& scorers, const Oracle& oracle,
                    topk::TopKServer* server, SpeedGauge* gauge,
                    Report* report) {
  LoopOutcome out;
  Mailbox mailbox;
  Clock::time_point next_gauge = Clock::now();
  size_t in_flight = 0;
  std::vector<Delivery> batch;
  const Clock::time_point start = Clock::now();
  out.per_second.assign(static_cast<size_t>(seconds), 0.0);
  const auto absorb = [&](Delivery& d) {
    const QuerySpec& spec = schedule[d.index];
    ++report->attempted;
    if (!d.result.ok()) {
      // No request has a deadline and the queue holds every request in
      // flight, so the server has no reason to refuse one.
      report->Fail(std::string(AlgoStem(spec.kind)) + ": " +
                   d.result.status().ToString());
      ++report->failed;
      return;
    }
    const topk::TopKResult& result = d.result.ValueUnsafe();
    const std::string error = oracle.Check(spec.scorer, spec.k, result);
    if (!error.empty()) {
      report->Fail(std::string(AlgoStem(spec.kind)) + ": " + error);
    }
    const bool exact = result.completion == topk::Completion::kExact;
    if (!exact || !error.empty()) ++report->failed;
    const double latency = MsBetween(d.submitted, d.delivered);
    const double scale = gauge->Scale();
    out.latencies.Add(spec.kind, latency * scale);
    const size_t second =
        static_cast<size_t>(MsBetween(start, d.delivered) / 1000.0);
    if (second < out.per_second.size()) out.per_second[second] += 1.0 / scale;
    if (exact && spec.kind == AlgorithmKind::kBpa) {
      out.bpa_cost.Add(result.execution_cost / 1000.0);
    }
    if (exact && spec.kind == AlgorithmKind::kTput) {
      out.tput_cost.Add(result.execution_cost / 1000.0);
    }
    if (traced) {
      out.samples.push_back(SampleOf(spec, result.elapsed_ms, result));
      out.wait_ms.Add(latency - result.elapsed_ms);
    }
  };

  const Clock::time_point stop =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  while (true) {
    const bool submitting = Clock::now() < stop;
    if (!submitting && in_flight == 0) break;
    while (submitting && in_flight < in_flight_target) {
      const uint32_t index = static_cast<uint32_t>(*cursor);
      *cursor = (*cursor + 1) % schedule.size();
      const QuerySpec& spec = schedule[index];
      topk::ServerRequest request;
      request.kind = spec.kind;
      request.query = topk::TopKQuery{spec.k, &scorers.at(spec.scorer)};
      ++in_flight;
      const Clock::time_point submitted = Clock::now();
      Mailbox* box = &mailbox;
      server->SubmitWithCallback(
          request, [box, index, submitted](topk::Result<topk::TopKResult> r) {
            const Clock::time_point delivered = Clock::now();
            std::lock_guard<std::mutex> lock(box->mu);
            box->done.push_back(
                Delivery{index, submitted, delivered, std::move(r)});
            box->count.store(box->done.size(), std::memory_order_release);
          });
      if (traced) {
        out.admit_us.push_back(MsBetween(submitted, Clock::now()) * 1000.0);
      }
    }
    while (mailbox.count.load(std::memory_order_acquire) == 0) {
      std::this_thread::yield();
    }
    {
      std::lock_guard<std::mutex> lock(mailbox.mu);
      batch.swap(mailbox.done);
      mailbox.count.store(0, std::memory_order_relaxed);
    }
    for (Delivery& d : batch) {
      --in_flight;
      absorb(d);
    }
    batch.clear();
    // The generator samples the gauge while the workers stay busy with
    // the requests in flight.
    if (Clock::now() >= next_gauge) {
      gauge->Sample();
      next_gauge = Clock::now() + kGaugeEvery;
    }
  }
  out.wall_ms = MsBetween(start, Clock::now());
  return out;
}

}  // namespace

void RunServeZipf(const RunConfig& config, Report* report) {
  const ScoreColumns columns = ZipfScores(kN, kM, config.seed);
  const size_t workers =
      std::max<size_t>(2, std::thread::hardware_concurrency()) - 1;
  const size_t in_flight = 2 * workers;

  topk::Rng rng(config.seed ^ 0x5e7e2ULL);
  const ScorerSet scorers(kM, kWeightedScorers, &rng);
  const std::vector<QuerySpec> schedule = Schedule(&rng);

  // Set-up: database build, server start, and a warm-up round in which every
  // worker context meets every algorithm. The warm-up uses the smallest k:
  // at k = 50, NRA alone takes ~40 ms on this data, and set-up time would
  // follow how many cores the host gives the workers.
  SpeedGauge gauge;
  std::vector<double> setup_s, build_s;
  std::unique_ptr<Instance> instance;
  for (size_t i = 0; i < kSetups; ++i) {
    instance = nullptr;  // one instance alive at a time
    instance = std::make_unique<Instance>();
    const Clock::time_point t0 = Clock::now();
    instance->db = std::make_unique<topk::Database>(BuildDatabase(columns));
    const Clock::time_point t1 = Clock::now();
    topk::ServerOptions options;
    options.num_threads = workers;
    options.queue_capacity = 4 * in_flight;
    instance->server =
        std::make_unique<topk::TopKServer>(instance->db.get(), options);
    std::vector<std::future<topk::Result<topk::TopKResult>>> warm;
    for (size_t w = 0; w < workers; ++w) {
      for (const MixEntry& e : kMix) {
        warm.push_back(instance->server->Submit(topk::ServerRequest{
            e.kind, topk::TopKQuery{kKs[0], &scorers.at(0)}, 0.0}));
      }
    }
    for (auto& f : warm) f.wait();
    const double took_s = MsBetween(t0, Clock::now()) / 1000.0;
    setup_s.push_back(took_s * gauge.Resample());
    build_s.push_back(MsBetween(t0, t1) / 1000.0);
  }
  topk::TopKServer* server = instance->server.get();
  const topk::Database& db = *instance->db;
  const Oracle oracle(db, scorers, kKs[2]);

  // Work counters of a fixed request set, run once through ExecuteInto: how
  // far through the schedule the server gets in a run depends on timing.
  {
    SingleNodeRunner runner(&db);
    std::vector<QuerySample> fingerprint;
    for (size_t i = 0; i < 64; ++i) {
      std::string error;
      fingerprint.push_back(
          runner.Run(schedule[i], scorers.at(schedule[i].scorer), &error));
    }
    report->detail.Obj("work", SingleNodeWork(fingerprint));
  }

  // A traced run measures its first half untraced, for the overhead.
  size_t cursor = 0;
  Report untraced_half;
  Report* counted = config.trace ? &untraced_half : report;
  const double seconds = config.trace ? config.seconds / 2 : config.seconds;
  const LoopOutcome loop = RunLoop(seconds, false, in_flight, schedule,
                                   &cursor, scorers, oracle, server, &gauge,
                                   counted);
  const double qps = Median(loop.per_second);
  report->detail.Int("workers", workers).Int("in_flight", in_flight);

  if (!config.trace) {
    AddRunMetrics(setup_s, qps, report);
    loop.latencies.AddMetrics(report);
    report->detail.Obj("speed_gauge",
                       JsonObject()
                           .Num("reference_ms", SpeedGauge::kReferenceMs)
                           .Num("median_ms", gauge.MedianMs()));
    report->Set("bpa_virtual_ms", loop.bpa_cost.value());
    report->Set("tput_virtual_ms", loop.tput_cost.value());
    return;
  }

  const topk::ServerStats before = server->stats();
  const LoopOutcome traced = RunLoop(config.seconds / 2, true, in_flight,
                                     schedule, &cursor, scorers, oracle,
                                     server, &gauge, report);
  const topk::ServerStats after = server->stats();

  double busy_ms = 0.0;
  std::vector<double> service;
  for (const QuerySample& s : traced.samples) {
    busy_ms += s.ms;
    service.push_back(s.ms);
  }
  const Tail wait_tail = traced.wait_ms.TailOf();
  report->Set("core.server.admit_us", Median(traced.admit_us));
  report->Set("core.server.service_ms_p50", Median(service));
  report->Set("core.server.wait_ms_p50", traced.wait_ms.Quantile(0.5));
  report->Set("core.server.wait_ms_tail", wait_tail.value);
  report->detail.Obj("wait_tail", TailJson(wait_tail));
  report->Set("core.server.worker_busy_share",
              busy_ms / (static_cast<double>(workers) * traced.wall_ms));
  report->Set("core.server.shed_rejected",
              static_cast<double>(after.shed_rejected - before.shed_rejected));
  report->Set("core.server.expired_at_dequeue",
              static_cast<double>(after.expired_at_dequeue -
                                  before.expired_at_dequeue));
  report->Set("core.server.deadline_cancelled",
              static_cast<double>(after.deadline_cancelled -
                                  before.deadline_cancelled));
  AddSingleNodeLayers(db, scorers, traced.samples, report);
  const double traced_qps = Median(traced.per_second);
  AddTraceMetrics(untraced_half, qps, traced_qps, build_s, DatabaseMb(db),
                  report);
}

}  // namespace perfbench
