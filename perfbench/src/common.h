// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// Shared pieces of the repository benchmark: run configuration, seeded
// inputs, the Naive-oracle correctness gate, statistics, the result report
// and the JSON it prints. Everything here drives the library only through
// its public headers.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/topk_algorithm.h"
#include "core/topk_result.h"
#include "lists/database.h"
#include "lists/scorer.h"

namespace perfbench {

using topk::AlgorithmKind;
using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// ---- JSON ----

/// An insertion-ordered JSON object whose values are rendered on insertion.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value);
  JsonObject& Int(const std::string& key, uint64_t value);
  JsonObject& Str(const std::string& key, const std::string& value);
  JsonObject& Bool(const std::string& key, bool value);
  JsonObject& Obj(const std::string& key, const JsonObject& value);
  std::string Dump() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---- report ----

/// What one run prints: the gate, the counts, the metrics of its mode, and
/// a detail section (host shape, work counters, tail percentiles).
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> values;  // metric name -> value
  JsonObject detail;
  std::string first_error;

  void Set(const std::string& name, double value) { values[name] = value; }
  void Fail(const std::string& what) {
    if (correct) first_error = what;
    correct = false;
  }
};

/// Sets setup_s (median of the run's set-ups, each scaled by a SpeedGauge
/// read right after it), peak_rss_mb, qps and exact_share.
void AddRunMetrics(const std::vector<double>& setup_s, double qps,
                   Report* report);

/// Folds the gate of a traced run's untraced half into `report`, and sets
/// the set-up layer (gen.*) and trace.overhead_share from the two halves'
/// throughput.
void AddTraceMetrics(const Report& untraced_half, double untraced_qps,
                     double traced_qps, const std::vector<double>& build_s,
                     double db_mb, Report* report);

/// Every end-to-end metric (name, unit), in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();
/// Every per-layer metric (name, unit), in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Prints the detail section and then, as the last line, the result object.
/// Metrics of the run's mode that the workload did not set print as 0.
void PrintReport(const RunConfig& config, Report* report);

// ---- statistics ----

double Median(std::vector<double> values);

struct RunningMean {
  double sum = 0.0;
  uint64_t count = 0;
  void Add(double value) {
    sum += value;
    ++count;
  }
  double value() const { return count == 0 ? 0.0 : sum / count; }
};

/// The highest percentile, at most p99, that still has at least ten samples
/// beyond it, with its sample count.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  uint64_t samples = 0;
};
JsonObject TailJson(const Tail& tail);

/// Log-bucketed histogram of milliseconds: 0.1% relative resolution from
/// 0.1 us to 1000 s in constant memory, so recording an answer never grows
/// the process whose peak RSS is being measured.
class Histogram {
 public:
  Histogram();
  void Add(double ms);
  uint64_t count() const { return count_; }
  /// Nearest-rank quantile, q in [0, 1]: the bucket's geometric midpoint.
  double Quantile(double q) const;
  Tail TailOf() const;

 private:
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// End-to-end latencies of delivered answers, overall and per algorithm.
class LatencyBook {
 public:
  void Add(AlgorithmKind kind, double ms) {
    all_.Add(ms);
    by_kind_[kind].Add(ms);
  }
  uint64_t count() const { return all_.count(); }
  /// Sets latency_p50_ms, latency_tail_ms and the median <algorithm>_ms of
  /// each algorithm; the tail's percentile and the per-algorithm answer
  /// counts go to the detail section.
  void AddMetrics(Report* report) const;
  /// Sets only the median <algorithm>_ms of each algorithm; the answer
  /// counts go to the detail section under `counts_key`.
  void AddAlgorithmMetrics(const std::string& counts_key,
                           Report* report) const;

 private:
  Histogram all_;
  std::map<AlgorithmKind, Histogram> by_kind_;
};

// ---- host speed ----

/// A fixed piece of the benchmark's own work, timed between queries to
/// follow the host's speed: sorting a copy of 2048 seeded keys, which is
/// branchy, cache-resident work like the program's. On a shared 4-vCPU host
/// the speed drifts by up to 1.9x over seconds to minutes, so raw times
/// differ by a fifth or more between runs. Scaling a time by
/// kReferenceMs / (the median of the gauge's last kWindow samples) takes
/// most of that out. Of the gauges tried (pointer chases held in L2, L3 and
/// DRAM, a streaming copy, this sort), the sort tracked the drift best; the
/// copy worst, as bursts of memory traffic slowed it 4x while queries
/// slowed 1.3x. No gauge follows the shortest bursts, which slow queries
/// 1.5-2x for a few seconds, so latency tails keep that noise. The gauge
/// runs none of the program's code, so a change to the program still moves
/// the scaled times in full.
class SpeedGauge {
 public:
  /// The gauge's usual time on the host the benchmark was tuned on, so
  /// scaled times read close to that host's milliseconds.
  static constexpr double kReferenceMs = 0.12;
  static constexpr size_t kWindow = 32;

  SpeedGauge();
  /// Runs the gauge once and keeps its time.
  void Sample();
  /// Takes kWindow fresh samples and returns Scale().
  double Resample();
  /// kReferenceMs over the median of the last kWindow samples: the factor
  /// that scales a time measured around them to the reference host.
  double Scale() const;
  /// Median of every sample so far, in ms.
  double MedianMs() const { return Median(all_ms_); }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> scratch_;  // sorted in place every sample
  std::vector<double> all_ms_;
};

// ---- inputs ----

/// Per-list score columns (column[list][item]); generating them is the
/// benchmark's work and stays outside every timed window.
using ScoreColumns = std::vector<std::vector<topk::Score>>;
ScoreColumns UniformScores(size_t n, size_t m, uint64_t seed);
/// Zipf(theta = 0.7) scores, an independent random item order per list.
ScoreColumns ZipfScores(size_t n, size_t m, uint64_t seed);

/// The program's own set-up step: sorted lists plus item-major mirror rows.
topk::Database BuildDatabase(const ScoreColumns& columns);
/// Bytes held by the database's list arrays and mirror rows, in MiB.
double DatabaseMb(const topk::Database& db);

/// Scorer 0 is the plain sum; scorers 1..count are weighted sums with
/// seeded weights in [0.5, 1].
class ScorerSet {
 public:
  ScorerSet(size_t m, size_t weighted_count, topk::Rng* rng);
  const topk::Scorer& at(size_t index) const { return *scorers_[index]; }
  size_t size() const { return scorers_.size(); }

 private:
  std::vector<std::unique_ptr<topk::Scorer>> scorers_;
};

struct QuerySpec {
  AlgorithmKind kind = AlgorithmKind::kBpa;
  uint32_t k = 10;
  uint32_t scorer = 0;  // index into the workload's ScorerSet
};

/// Lower-case metric stem of an algorithm ("bpa", "ta", ...).
const char* AlgoStem(AlgorithmKind kind);
/// True for the algorithms whose answers live in a candidate pool.
bool IsPoolFamily(AlgorithmKind kind);

// ---- correctness gate ----

/// Naive reference answers, computed once per scorer before timing starts.
class Oracle {
 public:
  Oracle(const topk::Database& db, const ScorerSet& scorers, size_t max_k);
  /// Empty when `result` is a correct answer to (scorer, k): an exact answer
  /// must equal the reference byte for byte, items and scores; an anytime
  /// answer must carry a sound certificate (theta >= 1, kth_lower_bound and
  /// unreturned_upper_bound hold against the true scores).
  std::string Check(uint32_t scorer, size_t k,
                    const topk::TopKResult& result) const;

 private:
  double TrueScore(uint32_t scorer, topk::ItemId item) const;

  const topk::Database* db_;
  const ScorerSet* scorers_;
  std::vector<std::vector<topk::ResultItem>> reference_;  // top (max_k + 1)
};

// ---- host ----

JsonObject HostShape();
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
