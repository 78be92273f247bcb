// perfbench: the end-to-end benchmark of the netqre deployment pipeline.
//
//   perfbench gen --workload W --seed N --out DIR [--scale S]
//   perfbench run --workload W --seed N --seconds T --trace 0|1 --out DIR
//                 --queries DIR --rules DIR [--scale S] [--corrupt]
//
// `gen` writes the workload's capture (and any expected results) for the
// seed; `run` replays it through the pipeline, checks the results, prints
// one line per metric and, last, one JSON object.  Exit status 1 means a
// correctness check failed, 2 a usage or set-up error.  run.py drives both.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|run --workload W --seed N [--seconds T] "
               "[--trace 0|1] [--out DIR] [--queries DIR] [--rules DIR] "
               "[--scale S] [--corrupt]\n");
}

void print_metric(const perfbench::Metric& m) {
  if (m.samples) {
    std::printf("%-34s %16.4f %-10s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  } else {
    std::printf("%-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

// The result object, doubles with all their significant digits.
std::string result_json(const perfbench::Outcome& out, bool trace) {
  std::string j = "{\"correct\": ";
  j += out.correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(out.attempted);
  j += ", \"failed\": " + std::to_string(out.failed);
  j += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : trace ? out.per_layer : out.end_to_end) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    j += first ? "" : ", ";
    j += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
         m.unit + "\"}";
    first = false;
  }
  j += "}}";
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string mode = argv[1];
  perfbench::Options opt;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = next();
    } else if (a == "--seed") {
      opt.seed = std::strtoull(next().c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(next().c_str(), nullptr);
    } else if (a == "--trace") {
      opt.trace = next() == "1";
    } else if (a == "--out") {
      opt.out_dir = next();
    } else if (a == "--queries") {
      opt.queries_dir = next();
    } else if (a == "--rules") {
      opt.rules_dir = next();
    } else if (a == "--scale") {
      opt.scale = std::strtod(next().c_str(), nullptr);
    } else if (a == "--corrupt") {
      opt.corrupt = true;
    } else {
      usage();
      return 2;
    }
  }
  bool known = false;
  for (const auto& n : perfbench::workload_names()) known |= n == opt.workload;
  if (!known || opt.seconds <= 0 || opt.scale <= 0) {
    usage();
    return 2;
  }
  try {
    if (mode == "gen") {
      perfbench::generate(opt);
      return 0;
    }
    if (mode != "run") {
      usage();
      return 2;
    }
    const perfbench::Outcome out = perfbench::run(opt);
    std::printf("workload %s seed %llu seconds %g trace %d\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0);
    for (const auto& m : out.end_to_end) print_metric(m);
    const double error_rate =
        out.attempted ? static_cast<double>(out.failed) /
                            static_cast<double>(out.attempted)
                      : 0;
    std::printf("%-34s %16.6f %-10s (n=%llu operations)\n", "error_rate",
                error_rate, "ratio", static_cast<unsigned long long>(out.attempted));
    for (const auto& m : out.per_layer) print_metric(m);
    for (const auto& n : out.notes) std::printf("note: %s\n", n.c_str());
    for (const auto& e : out.errors) std::printf("CHECK FAILED: %s\n", e.c_str());
    std::printf("%s\n", result_json(out, opt.trace).c_str());
    return out.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
