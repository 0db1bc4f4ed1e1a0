// The benchmark's entry points, one per workload family, plus its
// self-tests.
#pragma once

#include "report.hpp"

namespace perfbench {

/// `pay_open` and `session_churn`: tinyevm_hubd over loopback TCP.
RunResult run_hub_workload(const RunOptions& options);

/// `corpus_deploy`: Fig. 3 corpus passes through corpus::DeviceDeployer.
RunResult run_corpus_workload(const RunOptions& options);

/// Tiny-scale checks of the benchmark's own logic; returns failures.
int run_self_tests();

}  // namespace perfbench
