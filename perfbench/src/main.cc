// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// topk_perfbench: the repository benchmark. One run measures one workload
// from one seed and prints, as its last line, the result object:
//
//   topk_perfbench --workload dist-100k --seed 3 --seconds 15 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// See README.md in this directory for the workloads and the metrics.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: topk_perfbench --workload serve-zipf|dist-100k "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

bool ParseUnsigned(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (*end != '\0' || text[0] == '-') return false;
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    uint64_t number = 0;
    if (std::strcmp(argv[i], "--workload") == 0 && value != nullptr) {
      config.workload = value;
      have_workload = true;
    } else if (std::strcmp(argv[i], "--seed") == 0 &&
               ParseUnsigned(value, &number)) {
      config.seed = number;
    } else if (std::strcmp(argv[i], "--seconds") == 0 &&
               ParseUnsigned(value, &number) && number >= 1 &&
               number <= 600) {
      config.seconds = static_cast<double>(number);
    } else if (std::strcmp(argv[i], "--trace") == 0 &&
               ParseUnsigned(value, &number) && number <= 1) {
      config.trace = number == 1;
    } else {
      return Usage();
    }
    ++i;
  }
  if (!have_workload) return Usage();

  perfbench::Report report;
  if (config.workload == "serve-zipf") {
    perfbench::RunServeZipf(config, &report);
  } else if (config.workload == "dist-100k") {
    perfbench::RunDist100k(config, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", config.workload.c_str());
    return Usage();
  }
  perfbench::PrintReport(config, &report);
  if (!report.correct) {
    std::fprintf(stderr, "correctness gate failed: %s\n",
                 report.first_error.c_str());
    return 1;
  }
  return 0;
}
