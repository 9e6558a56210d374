// ftbench: the ftdiag benchmark program.
//
//   ftbench --workload <serve_mix|serve_wide|atpg> --seed <n>
//           --seconds <s> --trace <0|1> [--work-dir <dir>] [--trace-path <file>]
//           [--source-id <id>]
//
// Prints the host fingerprint, then as its last line one JSON object with
// the keys correct, attempted, failed and metrics.  See ../README.md.
#include <sys/prctl.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "util/logging.hpp"
#include "workloads.hpp"

namespace {

ftbench::Args parse(int argc, char** argv) {
  ftbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else if (key == "--trace-path") {
      args.trace_path = value;
    } else if (key == "--source-id") {
      args.source_id = value;
    } else {
      throw std::invalid_argument("unknown option " + key);
    }
  }
  if (argc % 2 == 0) throw std::invalid_argument("options take one value each");
  if (args.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  namespace fs = std::filesystem;
  ftbench::Args args;
  try {
    args = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftbench: %s\n", e.what());
    return 2;
  }
  ftdiag::log::set_level(ftdiag::log::Level::kWarn);
  // Wake the open-loop generator close to each due time.
  prctl(PR_SET_TIMERSLACK, 1000UL, 0, 0, 0);

  // Per-process scratch (the dictionary store), removed on the way out.
  args.work_dir += "/" + std::to_string(getpid());
  fs::create_directories(args.work_dir);
  if (args.trace) {
    fs::create_directories(fs::path(args.trace_path).parent_path());
  }
  ftbench::Result result;
  int status = 0;
  try {
    if (args.workload == "serve_mix") {
      ftbench::run_serve(args, false, result);
    } else if (args.workload == "serve_wide") {
      ftbench::run_serve(args, true, result);
    } else if (args.workload == "atpg") {
      ftbench::run_atpg(args, result);
    } else {
      std::fprintf(stderr, "ftbench: unknown workload '%s'\n",
                   args.workload.c_str());
      status = 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ftbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    status = 1;
  }
  std::error_code ignored;
  fs::remove_all(args.work_dir, ignored);
  if (status != 0) return status;

  for (const std::string& problem : result.problems()) {
    std::fprintf(stderr, "ftbench: check failed: %s\n", problem.c_str());
  }
  std::printf("%s\n%s\n", ftbench::fingerprint_json(args).c_str(),
              result.json().c_str());
  return 0;
}
