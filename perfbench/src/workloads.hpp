#pragma once

#include "bench.hpp"

namespace perfbench {

/// Each workload sets itself up, measures one untraced phase and reports
/// the end-to-end metrics. With Options::trace it measures a shorter
/// untraced phase (half the time, capped per workload), replays exactly
/// that work traced, and reports the per-layer metrics.
void run_walk_corpus(const Options& opt, Report& report);
void run_serve_mixed(const Options& opt, Report& report);
void run_serve_scaleout(const Options& opt, Report& report);

}  // namespace perfbench
