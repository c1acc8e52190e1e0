// The four benchmark workloads and the field/codec kernel replay. Each
// workload runs whole rounds of the same operations for Options::seconds,
// checks every output, and fills the Report with the end-to-end metrics
// (untraced) or the per-layer metrics (traced; see common.h).
#pragma once

#include "common.h"

namespace perfbench {

void run_table1_sweep(const Options& opts, Report& report);
void run_soak_net(const Options& opts, Report& report);
void run_fm_steady(const Options& opts, Report& report);
void run_audit_trace(const Options& opts, Report& report);

// Replays the PrimeField batch kernels and the masked wire codec at the
// n = 64 FM-coin shapes and checks every result against the reference
// in kernels.cpp (one operation per kernel). With `timed`, also sets the
// field.* and codec.* per-layer metrics.
void replay_kernels(const Options& opts, Report& report, bool timed);

}  // namespace perfbench
