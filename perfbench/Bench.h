//===- perfbench/Bench.h - Workloads, shared steps --------------*- C++ -*-===//
//
// Part of the CUDAAdvisor reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads (profile-exact, simulate-j4, service-mixed) and
/// the steps they share: seeded shuffling, timed set-up, the pass loop,
/// the run-to-run counter check, and the traced run's probes and
/// per-layer metrics. README.md holds the metric -> layer -> workload
/// table.
///
//===----------------------------------------------------------------------===//

#ifndef CUADV_PERFBENCH_BENCH_H
#define CUADV_PERFBENCH_BENCH_H

#include "Harness.h"
#include "Pipeline.h"

#include "server/Server.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 1;
  bool Trace = false;
  std::string WorkDir;     ///< Scratch directory, removed afterwards.
  std::string StateDir;    ///< Survives runs: the counter record.
  std::string TraceOut;    ///< Chrome trace of a traced run.
  bool SetupProbe = false; ///< Only set up, then print the time.
};

/// Everything a run prepares before its first timed job.
struct Setup {
  cuadv::gpusim::DeviceSpec Spec; ///< The kepler16 bench preset.
  cuadv::core::ProfileArtifact Baseline; ///< bench/baselines/workloads.json
  std::vector<const cuadv::workloads::Workload *> Apps; ///< The job list.
  /// service-mixed: a server started on a fresh, empty cache directory.
  std::unique_ptr<cuadv::server::Server> Server;
};

/// Resolves \p AppNames in the workload registry, loads the device
/// preset and reads the baseline artifact (relative to the working
/// directory, the repository root).
bool loadSetup(const std::vector<std::string> &AppNames, Setup &Out,
               std::string &Error);

/// One benchmark workload: its set-up, timed as setup_s, and its run.
struct BenchWorkload {
  const char *Name;
  bool (*SetUp)(const RunArgs &A, Setup &S, std::string &Error);
  /// Measures into \p R: the end-to-end metrics (with \p SetupS), or
  /// the per-layer ones when A.Trace.
  void (*Run)(const RunArgs &A, const Setup &S, double SetupS, Report &R);
};

/// The workload named \p Name, or null.
const BenchWorkload *findBenchWorkload(const std::string &Name);

bool setUpProfileExact(const RunArgs &A, Setup &S, std::string &Error);
void runProfileExact(const RunArgs &A, const Setup &S, double SetupS,
                     Report &R);
bool setUpSimulateJ4(const RunArgs &A, Setup &S, std::string &Error);
void runSimulateJ4(const RunArgs &A, const Setup &S, double SetupS,
                   Report &R);
bool setUpServiceMixed(const RunArgs &A, Setup &S, std::string &Error);
void runServiceMixed(const RunArgs &A, const Setup &S, double SetupS,
                     Report &R);

/// setup_s: the median, over \p Times fresh processes of this binary in
/// set-up probe mode, of the time from spawning the process to the end
/// of the workload's set-up. -1 (with \p Error) if a probe failed.
double measureSetupSeconds(const RunArgs &A, unsigned Times,
                           std::string &Error);

/// splitmix64: the benchmark's only source of randomness.
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next();
  uint64_t below(uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  uint64_t S;
};

/// The ten paper workloads, in registry (paper Table 2) order.
std::vector<std::string> paperAppNames();

/// The apps the service-mixed stream requests; also the profile probe
/// set of the workloads whose pass does not profile.
std::vector<std::string> streamAppNames();

/// What an untraced run measured, pass by pass. Job latency quantiles
/// are taken within each pass, whose job list has a fixed make-up, and
/// then summarised by their median over the passes.
struct PassStats {
  std::vector<double> WallMs, JobP50Ms, JobP90Ms;
  size_t Jobs = 0;
};

/// Repeats \p Pass until the next pass would overrun \p Seconds; at
/// least one pass. \p Pass returns its wall time in ms and fills in its
/// jobs' latencies.
PassStats runPasses(
    double Seconds,
    const std::function<double(unsigned Pass, std::vector<double> &JobMs)>
        &Pass);

/// Counts a failure unless a later pass repeated the first pass's work
/// counters exactly.
void checkSameCounters(const WorkCounters &First, const WorkCounters &Later,
                       Report &R);

/// Checks that \p Counters (the seed-independent work counters of one
/// pass) equal what the first run of this build recorded for \p Key.
void checkRepeatedCounters(const RunArgs &A, const std::string &Key,
                           const std::string &Counters, Report &R);

/// Reports the end-to-end metrics of an untraced run.
void reportEndToEnd(Report &R, double SetupS, const PassStats &P);

/// What the traced run gathered beyond its spans.
struct TracedRun {
  Tracer T{true};
  int NextJob = 0; ///< Job ids, unique over the run.
  double UntracedPassMs = 0;
  double TracedPassMs = 0;
  WorkCounters PassCounters;  ///< The traced pass's in-process jobs.
  WorkCounters ProbeCounters; ///< The probe's profile jobs.
  double PassRssGrowthMb = 0;  ///< Largest growth over one app's run.
  double ProbeRssGrowthMb = 0;
  struct PoolApp {
    std::string App;
    double J1Ms = 0, J4Ms = 0;
  };
  std::vector<PoolApp> Pool;
  bool PassHasCache = false; ///< The pass went through cuadvisord.
  uint64_t CacheHits = 0, CacheMisses = 0;
};

/// Runs the workload's pass untraced, traced, then untraced again, so
/// that drift between passes cancels out of the tracing overhead.
/// \p Pass returns the pass wall time in ms (for the traced pass, less
/// the probe calls nested in it).
void bracketTracedPass(TracedRun &TR,
                       const std::function<double(bool Traced)> &Pass);

/// Probe: each app simulated uninstrumented at jobs=1 and at jobs=4;
/// the simulated statistics must agree exactly.
void probePool(const Setup &S, TracedRun &TR, Report &R);

/// Probe: the exact profile pipeline over \p Apps, with every analysis
/// call and the cache path made once per app; checked against the
/// baselines.
void probeProfiles(const Setup &S,
                   const std::vector<const cuadv::workloads::Workload *> &Apps,
                   const RunArgs &A, TracedRun &TR, Report &R);

/// Wall time of the probe spans nested directly in pass spans: what a
/// traced pass subtracts to compare with an untraced one.
double probeMsInsidePass(const Tracer &T);

/// Reports every per-layer metric of a traced run and writes its trace.
void reportPerLayer(const RunArgs &A, TracedRun &TR, Report &R);

} // namespace perfbench

#endif // CUADV_PERFBENCH_BENCH_H
