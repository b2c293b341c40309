//===- perfbench/main.cpp - The repository's benchmark --------------------===//
//
// Part of the CUDAAdvisor reproduction project.
//
//   perfbench --workload profile-exact|simulate-j4|service-mixed
//             --seed N --seconds S --trace 0|1
//             [--work DIR] [--state DIR] [--trace-out FILE]
//
// Run it from the repository root (bench/baselines/ is read from
// there). Runs one workload in this process and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics of a traced
// run with --trace 1. perfbench/run.py builds this binary and supplies
// the directories. README.md documents every metric.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <unistd.h>

using namespace perfbench;
namespace fs = std::filesystem;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload profile-exact|simulate-j4|"
               "service-mixed --seed N --seconds S --trace 0|1\n"
               "                 [--work DIR] [--state DIR] "
               "[--trace-out FILE]\n",
               Why);
  std::exit(2);
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(Text, &End, 10);
  return *Text && *End == '\0' && Text[0] != '-';
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs A;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    const char *V = Argv[++I];
    uint64_t N = 0;
    if (Flag == "--workload") {
      A.Workload = V;
    } else if (Flag == "--seed") {
      if (!parseUnsigned(V, N))
        usage("--seed takes a whole number");
      A.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseUnsigned(V, N) || N == 0 || N > 600)
        usage("--seconds takes a whole number from 1 to 600");
      A.Seconds = double(N);
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        usage("--trace takes 0 or 1");
      A.Trace = V[0] == '1';
      HaveTrace = true;
    } else if (Flag == "--work") {
      A.WorkDir = V;
    } else if (Flag == "--state") {
      A.StateDir = V;
    } else if (Flag == "--trace-out") {
      A.TraceOut = V;
    } else if (Flag == "--setup-probe") {
      A.SetupProbe = V[0] == '1';
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace || A.Workload.empty())
    usage("--workload, --seed, --seconds and --trace are required");

  const BenchWorkload *W = findBenchWorkload(A.Workload);
  if (!W)
    usage(("unknown workload " + A.Workload).c_str());

  if (A.WorkDir.empty())
    A.WorkDir = "perfbench-work-" + std::to_string(::getpid());
  std::error_code EC;
  fs::remove_all(A.WorkDir, EC);
  fs::create_directories(A.WorkDir, EC);
  if (EC) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 A.WorkDir.c_str(), EC.message().c_str());
    return 1;
  }

  Setup S;
  std::string Error;
  if (A.SetupProbe) {
    // Set up, report when that finished, and leave at once: the parent
    // times process start to here.
    if (!W->SetUp(A, S, Error)) {
      std::fprintf(stderr, "perfbench: set-up failed: %s\n", Error.c_str());
      std::_Exit(1);
    }
    auto Now = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now().time_since_epoch());
    std::printf("%lld\n", static_cast<long long>(Now.count()));
    std::fflush(stdout);
    std::_Exit(0);
  }

  double SetupS = A.Trace ? 0 : measureSetupSeconds(A, 15, Error);
  bool Ok = SetupS >= 0 && W->SetUp(A, S, Error);
  // Each service-mixed pass starts its own server; the set-up's one
  // served only to time its start.
  S.Server.reset();
  Report R;
  if (Ok)
    W->Run(A, S, SetupS, R);
  fs::remove_all(A.WorkDir, EC);
  if (!Ok) {
    std::fprintf(stderr, "perfbench: set-up failed: %s\n", Error.c_str());
    return 1;
  }
  R.print();
  return 0;
}
