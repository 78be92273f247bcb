// The four workloads: trace generation, run, correctness checks, metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".";     // pcaps, span dumps, logs
  std::string queries_dir = "queries";
  std::string rules_dir;         // the benchmark's own .health rules
  double scale = 1.0;            // < 1 shrinks every trace (smoke test)
  bool corrupt = false;          // flip one result before checking
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  uint64_t samples = 0;  // 0 = a single reading, not a distribution
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // check failures, human-readable
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;   // extra human-readable lines
};

const std::vector<std::string>& workload_names();

// Writes the workload's inputs for `seed` under opt.out_dir.
void generate(const Options& opt);

// Runs the workload over the inputs generate() wrote.  With opt.trace the
// per-layer metrics are filled in (the run is made twice: untraced, to
// measure the tracing overhead, then traced).
Outcome run(const Options& opt);

}  // namespace perfbench
