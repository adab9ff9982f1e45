// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.

#include "common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <thread>

#include "core/topk_algorithm.h"
#include "gen/distributions.h"
#include "lists/sorted_list.h"

namespace perfbench {

using topk::Database;
using topk::ResultItem;
using topk::Score;
using topk::TopKResult;

// ---- JSON ----

namespace {

// Every significant digit; a non-finite value renders as null.
std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

JsonObject& JsonObject::Num(const std::string& key, double value) {
  fields_.emplace_back(key, JsonNumber(value));
  return *this;
}
JsonObject& JsonObject::Int(const std::string& key, uint64_t value) {
  fields_.emplace_back(key, std::to_string(value));
  return *this;
}
JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, Quote(value));
  return *this;
}
JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
  return *this;
}
JsonObject& JsonObject::Obj(const std::string& key, const JsonObject& value) {
  fields_.emplace_back(key, value.Dump());
  return *this;
}
std::string JsonObject::Dump() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i != 0) out += ", ";
    out += Quote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

// ---- report ----

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"setup_s", "s"},          {"peak_rss_mb", "MB"},
      {"qps", "1/s"},            {"latency_p50_ms", "ms"},
      {"latency_tail_ms", "ms"}, {"exact_share", "share"},
      {"bpa_ms", "ms"},          {"bpa2_ms", "ms"},
      {"ta_ms", "ms"},           {"nra_ms", "ms"},
      {"ca_ms", "ms"},           {"tput_ms", "ms"},
      {"bpa_virtual_ms", "ms"},  {"tput_virtual_ms", "ms"},
  };
  return kMetrics;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"lists.sorted_per_query", "count"},
        {"lists.random_per_query", "count"},
        {"lists.direct_per_query", "count"},
        {"lists.sorted_ns", "ns"},
        {"lists.random_ns", "ns"},
        {"lists.direct_ns", "ns"},
        {"tracker.marks_per_query", "count"},
        {"tracker.mark_ns", "ns"},
        {"core.buffer.offers_per_query", "count"},
        {"core.buffer.offer_ns", "ns"},
        {"core.pool.peak_candidates", "count"},
        {"core.pool.arena_mb", "MB"},
        {"core.pool.residual_ms", "ms"},
        {"core.stop.depth", "count"},
        {"core.stop.evaluations", "count"},
        {"core.stop.residual_ms", "ms"},
        {"core.governor.charge_ns", "ns"},
        {"core.governor.degraded", "count"},
        {"core.server.admit_us", "us"},
        {"core.server.service_ms_p50", "ms"},
        {"core.server.wait_ms_p50", "ms"},
        {"core.server.wait_ms_tail", "ms"},
        {"core.server.worker_busy_share", "share"},
        {"core.server.shed_rejected", "count"},
        {"core.server.expired_at_dequeue", "count"},
        {"core.server.deadline_cancelled", "count"},
        {"dist.coordinator.self_ms", "ms"},
        {"dist.coordinator.rounds", "count"},
        {"dist.coordinator.retries", "count"},
        {"dist.coordinator.hedges", "count"},
        {"dist.coordinator.hedge_wins", "count"},
        {"dist.coordinator.timeouts", "count"},
        {"dist.coordinator.replica_failovers", "count"},
        {"dist.transport.messages_per_query", "count"},
        {"dist.transport.bytes_per_query", "bytes"},
    };
    for (const char* type :
         {"hello", "sorted_window", "drain", "random_lookup", "probe"}) {
      m.emplace_back(std::string("dist.transport.calls.") + type, "count");
    }
    for (const char* type :
         {"hello", "sorted_window", "drain", "random_lookup", "probe"}) {
      m.emplace_back(std::string("dist.transport.virtual_ms.") + type, "ms");
    }
    for (const char* type :
         {"hello", "sorted_window", "drain", "random_lookup", "probe"}) {
      m.emplace_back(std::string("dist.owner.serve_us.") + type, "us");
    }
    m.emplace_back("dist.owner.rows_served_per_query", "count");
    m.emplace_back("gen.db_build_s", "s");
    m.emplace_back("gen.db_mb", "MB");
    m.emplace_back("trace.overhead_share", "share");
    return m;
  }();
  return kMetrics;
}

void AddRunMetrics(const std::vector<double>& setup_s, double qps,
                   Report* report) {
  report->Set("setup_s", Median(setup_s));
  report->Set("peak_rss_mb", PeakRssMb());
  report->Set("qps", qps);
  report->Set("exact_share",
              1.0 - static_cast<double>(report->failed) /
                        static_cast<double>(std::max<uint64_t>(
                            1, report->attempted)));
}

void AddTraceMetrics(const Report& untraced_half, double untraced_qps,
                     double traced_qps, const std::vector<double>& build_s,
                     double db_mb, Report* report) {
  if (!untraced_half.correct) report->Fail(untraced_half.first_error);
  report->Set("gen.db_build_s", Median(build_s));
  report->Set("gen.db_mb", db_mb);
  report->Set("trace.overhead_share",
              (untraced_qps - traced_qps) / untraced_qps);
}

void PrintReport(const RunConfig& config, Report* report) {
  if (report->attempted == 0) report->Fail("no query was attempted");
  JsonObject detail;
  detail.Str("workload", config.workload)
      .Int("seed", config.seed)
      .Num("seconds", config.seconds)
      .Bool("trace", config.trace)
      .Obj("host", HostShape());
  if (!report->first_error.empty()) {
    detail.Str("first_error", report->first_error);
  }
  detail.Obj("run", report->detail);
  std::printf("%s\n", detail.Dump().c_str());

  const auto& names = config.trace ? PerLayerMetrics() : EndToEndMetrics();
  JsonObject metrics;
  for (const auto& [name, unit] : names) {
    const auto it = report->values.find(name);
    const double value = it == report->values.end() ? 0.0 : it->second;
    metrics.Obj(name, JsonObject().Num("value", value).Str("unit", unit));
  }
  JsonObject result;
  result.Bool("correct", report->correct)
      .Int("attempted", report->attempted)
      .Int("failed", report->failed)
      .Obj("metrics", metrics);
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
}

// ---- statistics ----

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + mid);
  return 0.5 * (lower + upper);
}

JsonObject TailJson(const Tail& tail) {
  return JsonObject()
      .Num("value", tail.value)
      .Num("percentile", tail.percentile)
      .Int("samples", tail.samples);
}

namespace {
constexpr double kHistogramMinMs = 1e-4;
constexpr double kHistogramMaxMs = 1e6;
const double kLogStep = std::log(1.001);
const size_t kHistogramBuckets =
    static_cast<size_t>(std::log(kHistogramMaxMs / kHistogramMinMs) /
                        kLogStep) + 1;
}  // namespace

Histogram::Histogram() : buckets_(kHistogramBuckets, 0) {}

void Histogram::Add(double ms) {
  const double clamped = std::max(ms, kHistogramMinMs);
  const size_t index = std::min(
      kHistogramBuckets - 1,
      static_cast<size_t>(std::log(clamped / kHistogramMinMs) / kLogStep));
  ++buckets_[index];
  ++count_;
}

double Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  const uint64_t rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return kHistogramMinMs * std::exp((static_cast<double>(i) + 0.5) *
                                        kLogStep);
    }
  }
  return kHistogramMaxMs;
}

Tail Histogram::TailOf() const {
  Tail tail;
  tail.samples = count_;
  if (count_ == 0) return tail;
  const double n = static_cast<double>(count_);
  tail.percentile = std::max(0.0, std::min(99.0, 100.0 * (1.0 - 10.0 / n)));
  tail.value = Quantile(tail.percentile / 100.0);
  return tail;
}

void LatencyBook::AddMetrics(Report* report) const {
  const Tail tail = all_.TailOf();
  report->Set("latency_p50_ms", all_.Quantile(0.5));
  report->Set("latency_tail_ms", tail.value);
  report->detail.Obj("latency_tail", TailJson(tail));
  AddAlgorithmMetrics("answers_per_algorithm", report);
}

void LatencyBook::AddAlgorithmMetrics(const std::string& counts_key,
                                      Report* report) const {
  JsonObject counts;
  for (const auto& [kind, histogram] : by_kind_) {
    report->Set(std::string(AlgoStem(kind)) + "_ms", histogram.Quantile(0.5));
    counts.Int(AlgoStem(kind), histogram.count());
  }
  report->detail.Obj(counts_key, counts);
}

// ---- host speed ----

namespace {
constexpr size_t kGaugeKeys = 2048;  // 16 KiB: the gauge stays in cache
}  // namespace

SpeedGauge::SpeedGauge() : keys_(kGaugeKeys) {
  topk::Rng rng(0x9a49eULL);
  for (uint64_t& key : keys_) key = rng.NextUint64();
}

void SpeedGauge::Sample() {
  const Clock::time_point t0 = Clock::now();
  scratch_.assign(keys_.begin(), keys_.end());
  std::sort(scratch_.begin(), scratch_.end());
  all_ms_.push_back(MsBetween(t0, Clock::now()));
}

double SpeedGauge::Resample() {
  for (size_t i = 0; i < kWindow; ++i) Sample();
  return Scale();
}

double SpeedGauge::Scale() const {
  if (all_ms_.empty()) return 1.0;
  const size_t from = all_ms_.size() - std::min(all_ms_.size(), kWindow);
  return kReferenceMs /
         Median(std::vector<double>(all_ms_.begin() + from, all_ms_.end()));
}

// ---- inputs ----

ScoreColumns UniformScores(size_t n, size_t m, uint64_t seed) {
  topk::Rng rng(seed);
  ScoreColumns columns;
  for (size_t i = 0; i < m; ++i) {
    columns.push_back(topk::UniformScoreVector(n, &rng));
  }
  return columns;
}

ScoreColumns ZipfScores(size_t n, size_t m, uint64_t seed) {
  topk::Rng rng(seed);
  const std::vector<Score> zipf = topk::ZipfScoreVector(n, 0.7);
  ScoreColumns columns(m, std::vector<Score>(n));
  for (size_t i = 0; i < m; ++i) {
    const std::vector<uint32_t> order =
        rng.Permutation(static_cast<uint32_t>(n));
    for (size_t p = 0; p < n; ++p) columns[i][order[p]] = zipf[p];
  }
  return columns;
}

Database BuildDatabase(const ScoreColumns& columns) {
  std::vector<topk::SortedList> lists;
  lists.reserve(columns.size());
  for (const std::vector<Score>& column : columns) {
    lists.push_back(topk::SortedList::FromScores(column));
  }
  return Database::Make(std::move(lists)).ValueOrDie();
}

double DatabaseMb(const Database& db) {
  const size_t n = db.num_items();
  size_t bytes = db.item_row_stride_bytes() * n;
  for (const topk::SortedList& list : db.lists()) {
    // items/scores by position plus the item-indexed score/position maps.
    bytes += list.items().size() * sizeof(topk::ItemId) +
             list.scores().size() * sizeof(Score) +
             n * (sizeof(Score) + sizeof(topk::Position));
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

ScorerSet::ScorerSet(size_t m, size_t weighted_count, topk::Rng* rng) {
  scorers_.push_back(std::make_unique<topk::SumScorer>());
  for (size_t s = 0; s < weighted_count; ++s) {
    std::vector<double> weights(m);
    for (double& w : weights) w = rng->NextDouble(0.5, 1.0);
    scorers_.push_back(std::make_unique<topk::WeightedSumScorer>(
        topk::WeightedSumScorer::Make(std::move(weights)).ValueOrDie()));
  }
}

const char* AlgoStem(AlgorithmKind kind) {
  switch (kind) {
    case AlgorithmKind::kBpa:
      return "bpa";
    case AlgorithmKind::kBpa2:
      return "bpa2";
    case AlgorithmKind::kTa:
      return "ta";
    case AlgorithmKind::kNra:
      return "nra";
    case AlgorithmKind::kCa:
      return "ca";
    case AlgorithmKind::kTput:
      return "tput";
    case AlgorithmKind::kFa:
      return "fa";
    case AlgorithmKind::kNaive:
      return "naive";
  }
  return "unknown";
}

bool IsPoolFamily(AlgorithmKind kind) {
  return kind == AlgorithmKind::kNra || kind == AlgorithmKind::kCa ||
         kind == AlgorithmKind::kTput;
}

// ---- correctness gate ----

Oracle::Oracle(const Database& db, const ScorerSet& scorers, size_t max_k)
    : db_(&db), scorers_(&scorers) {
  const auto naive = topk::MakeAlgorithm(AlgorithmKind::kNaive);
  topk::ExecutionContext context;
  for (size_t s = 0; s < scorers.size(); ++s) {
    const topk::TopKQuery query{max_k + 1, &scorers.at(s)};
    reference_.push_back(
        naive->Execute(db, query, &context).ValueOrDie().items);
  }
}

double Oracle::TrueScore(uint32_t scorer, topk::ItemId item) const {
  return scorers_->at(scorer).Combine(db_->ItemScoresRow(item),
                                      db_->num_lists());
}

std::string Oracle::Check(uint32_t scorer, size_t k,
                          const TopKResult& result) const {
  const std::vector<ResultItem>& ref = reference_[scorer];
  if (result.completion == topk::Completion::kExact) {
    if (result.items.size() != k) return "exact answer has the wrong size";
    for (size_t i = 0; i < k; ++i) {
      if (!(result.items[i] == ref[i])) {
        return "exact answer differs from the Naive reference at rank " +
               std::to_string(i + 1);
      }
    }
    return "";
  }
  // Anytime answer: the bounds are derived in other summation orders than
  // the true scores, so compare with a relative tolerance of 1e-9.
  const auto leq = [](double a, double b) {
    return a <= b + 1e-9 * std::max(1.0, std::fabs(b));
  };
  if (!(result.theta >= 1.0)) return "anytime answer has theta < 1";
  if (result.items.size() > k) return "anytime answer has too many items";
  double min_returned = std::numeric_limits<double>::infinity();
  for (const ResultItem& item : result.items) {
    const double truth = TrueScore(scorer, item.item);
    if (!leq(item.score, truth)) return "anytime item score exceeds its truth";
    if (!leq(result.kth_lower_bound, truth)) {
      return "kth_lower_bound exceeds a returned item's true score";
    }
    min_returned = std::min(min_returned, truth);
  }
  // The best unreturned item is among the reference's first |items| + 1.
  for (const ResultItem& candidate : ref) {
    bool returned = false;
    for (const ResultItem& item : result.items) {
      returned = returned || item.item == candidate.item;
    }
    if (returned) continue;
    if (!leq(candidate.score, result.unreturned_upper_bound)) {
      return "unreturned_upper_bound below an unreturned item's true score";
    }
    if (std::isfinite(result.theta) && !result.items.empty() &&
        !leq(candidate.score, result.theta * min_returned)) {
      return "theta does not cover the best unreturned item";
    }
    break;
  }
  return "";
}

// ---- host ----

JsonObject HostShape() {
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  return JsonObject()
      .Int("nproc", std::thread::hardware_concurrency())
      .Int("l2_bytes", l2 > 0 ? static_cast<uint64_t>(l2) : 0)
      .Int("l3_bytes", l3 > 0 ? static_cast<uint64_t>(l3) : 0)
      .Str("compiler", __VERSION__)
      .Str("build_type", PERFBENCH_BUILD_TYPE);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
