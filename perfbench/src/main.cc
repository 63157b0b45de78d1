// perfbench_bin: the measured half of the repository benchmark (run.py is
// the other half: it builds this binary, runs prepare then run in separate
// processes, and turns the report into the benchmark's result line).
//
//   perfbench_bin prepare --workload W --seed N --dir D [--tiny 1]
//   perfbench_bin run --workload W --seed N --dir D --seconds S --trace 0|1
//                     [--tiny 1] [--corrupt 1]
//
// Workloads: attack-webmd, attack-webmd-idf, serve-read, serve-ingest.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

using perfbench::Options;

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_bin <prepare|run> --workload W --seed N "
               "--dir D [--seconds S] [--trace 0|1] [--tiny 1] "
               "[--corrupt 1]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  Options options;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--dir") {
      options.dir = value;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--tiny") {
      options.tiny = value == "1";
    } else if (flag == "--corrupt") {
      options.corrupt = value == "1";
    } else {
      return Usage();
    }
  }
  if (options.dir.empty() || options.seconds <= 0.0) return Usage();

  const bool prepare = command == "prepare";
  if (!prepare && command != "run") return Usage();
  const std::string& w = options.workload;
  if (w == "attack-webmd" || w == "attack-webmd-idf")
    return prepare ? perfbench::PrepareAttack(options)
                   : perfbench::RunAttack(options);
  if (w == "serve-read")
    return prepare ? perfbench::PrepareServeRead(options)
                   : perfbench::RunServeRead(options);
  if (w == "serve-ingest")
    return prepare ? perfbench::PrepareServeIngest(options)
                   : perfbench::RunServeIngest(options);
  std::fprintf(stderr, "unknown workload '%s'\n", w.c_str());
  return 2;
}
