// The three workloads. Each generates its inputs from the seed before
// anything is timed, runs the router once untraced for the end-to-end
// figures and, in a traced run, once more with the handle decorators and
// telemetry counters on, followed by the layer replays.
#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    uint32_t seed = 1;
    double seconds = 20;
    bool trace = false;
    // Flips one nexthop of the expected table before the first oracle
    // check, to show that a FIB/oracle mismatch fails the run.
    bool corrupt_oracle = false;
};

// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 15;

Result run_bgp_feed(const Options& o);
Result run_bulk_download(const Options& o);
Result run_xrl_rpc(const Options& o);

// Fills every per-layer key that `r.metrics` lacks, from `r.named` when
// the workload has that figure and with 0 otherwise: a traced run reports
// every layer on every workload, and 0 marks a layer the workload's path
// does not cross.
void complete_ledger(Result& r);

}  // namespace perfbench

#endif
