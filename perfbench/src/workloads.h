// Copyright (c) the topk-bpa authors. Licensed under the Apache License 2.0.
//
// The benchmark's workloads. Each builds its inputs from config.seed, sets
// the program up several times (setup_s is the median), runs a closed loop
// for config.seconds and fills `report` with the metrics of the run's mode.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

/// TopKServer under a closed loop of mixed requests on zipf n = 100k.
void RunServeZipf(const RunConfig& config, Report* report);
/// dBPA/dTPUT through a Coordinator over replicated in-process owners.
void RunDist100k(const RunConfig& config, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
