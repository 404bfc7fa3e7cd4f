// perfbench — the repository benchmark program. One workload per run:
//
//   perfbench --workload offline-pairs --seed 7 --seconds 10 --trace 0
//
// Inputs are generated from the seed before any timing starts; the timed
// passes drive the library through its public API only; every output is
// checked (exit status 1 on any mismatch). The last stdout line is one JSON
// object: end-to-end metrics with --trace 0, per-layer metrics with
// --trace 1. See README.md next to this file.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "ledger.hpp"

namespace {

bool parse(int argc, char** argv, perfbench::Options& options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::stoull(value);
    } else if (key == "--seconds") {
      options.seconds = std::stod(value);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: unknown option %s\n", key.c_str());
      return false;
    }
  }
  if (argc % 2 == 0) {
    std::fprintf(stderr, "perfbench: option %s lacks a value\n",
                 argv[argc - 1]);
    return false;
  }
  return options.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  try {
    if (!parse(argc, argv, options)) return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: bad option value: %s\n", e.what());
    return 2;
  }

  perfbench::Report report;
  int status = 0;
  try {
    if (options.workload == "offline-pairs") {
      status = perfbench::run_offline(options, report);
    } else if (options.workload == "daemon-faulty" ||
               options.workload == "daemon-restart") {
      status = perfbench::run_daemon(options, report);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  if (status != 0) return status;
  if (options.trace && !options.out_dir.empty()) {
    const std::string path = options.out_dir + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".csv";
    if (!perfbench::Tracer::instance().write(path)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("spans written to %s\n", path.c_str());
  }
  report.print(options.trace);
  return report.correct() ? 0 : 1;
}
