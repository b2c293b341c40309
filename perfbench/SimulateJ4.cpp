//===- perfbench/SimulateJ4.cpp - The simulate-j4 workload ----------------===//
//
// Part of the CUDAAdvisor reproduction project.
//
// The ten paper apps compiled and simulated without instrumentation (no
// hooks, no profiler) at jobs=4: the interpreter, the timing model and
// the per-SM worker pool do all the work. The seed only permutes the app
// order. Every app must pass its CPU-reference validation.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

using namespace perfbench;
using namespace cuadv;

namespace {

struct PassOutcome {
  double WallMs = 0;
  std::vector<double> JobMs;
  WorkCounters Counters;
};

PassOutcome simulatePass(const Setup &S, Tracer &T, int &NextJob,
                         Report &R) {
  gpusim::DeviceSpec Spec = S.Spec;
  Spec.Jobs = 4;
  std::vector<JobResult> Jobs;
  PassOutcome P;
  Clock::time_point Start = Clock::now();
  for (const workloads::Workload *W : S.Apps) {
    Clock::time_point JobStart = Clock::now();
    Jobs.push_back(runSimulateJob(*W, Spec, T, NextJob++));
    P.JobMs.push_back(msSince(JobStart));
  }
  P.WallMs = msSince(Start);
  for (const JobResult &J : Jobs) {
    R.attempt();
    if (!J.Ok)
      R.fail(J.Error);
    P.Counters += J.Counters;
  }
  return P;
}

} // namespace

bool perfbench::setUpSimulateJ4(const RunArgs &A, Setup &S,
                                std::string &Error) {
  std::vector<std::string> Names = paperAppNames();
  Rng(A.Seed).shuffle(Names);
  return loadSetup(Names, S, Error);
}

void perfbench::runSimulateJ4(const RunArgs &A, const Setup &S, double SetupS,
                              Report &R) {
  if (!A.Trace) {
    Tracer Off(false);
    int NextJob = 0;
    WorkCounters First;
    PassStats Stats = runPasses(A.Seconds, [&](unsigned Pass,
                                               std::vector<double> &JobMs) {
      PassOutcome P = simulatePass(S, Off, NextJob, R);
      if (Pass == 0)
        First = P.Counters;
      else
        checkSameCounters(First, P.Counters, R);
      JobMs = P.JobMs;
      return P.WallMs;
    });
    checkRepeatedCounters(A, "simulate-j4", First.str(), R);
    reportEndToEnd(R, SetupS, Stats);
    return;
  }

  TracedRun TR;
  bracketTracedPass(TR, [&](bool Traced) {
    PassOutcome P = simulatePass(S, TR.T, TR.NextJob, R);
    if (Traced)
      TR.PassCounters = P.Counters;
    return P.WallMs;
  });
  probePool(S, TR, R);
  // The pass calls neither the instrumenter, the profiler, the analyses
  // nor the cache: those layers are timed on the stream apps' profiles.
  std::vector<const workloads::Workload *> Stream;
  for (const std::string &Name : streamAppNames())
    Stream.push_back(workloads::findWorkload(Name));
  probeProfiles(S, Stream, A, TR, R);
  reportPerLayer(A, TR, R);
}
