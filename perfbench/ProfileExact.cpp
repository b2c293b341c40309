//===- perfbench/ProfileExact.cpp - The profile-exact workload ------------===//
//
// Part of the CUDAAdvisor reproduction project.
//
// The exact, fully instrumented profile of all ten paper apps at
// jobs=1, one after another: the `cuadvisor all --mode profile` path.
// The seed only permutes the app order. Every artifact must match
// bench/baselines/workloads.json exactly.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "server/ArtifactCache.h"

using namespace perfbench;
using namespace cuadv;

namespace {

struct PassOutcome {
  double WallMs = 0;
  std::vector<double> JobMs;
  WorkCounters Counters;
  double MaxRssGrowthMb = 0;
};

/// One pass over the apps; the artifacts are checked after the clock
/// stops, so the check's cost stays out of wall_s.
PassOutcome profilePass(const Setup &S, Tracer &T, int &NextJob,
                        server::ArtifactCache *ProbeCache, Report &R) {
  gpusim::DeviceSpec Spec = S.Spec;
  Spec.Jobs = 1;
  std::vector<JobResult> Jobs;
  PassOutcome P;
  Clock::time_point Start = Clock::now();
  for (const workloads::Workload *W : S.Apps) {
    Clock::time_point JobStart = Clock::now();
    Jobs.push_back(runProfileJob(*W, Spec, T, NextJob++, ProbeCache));
    P.JobMs.push_back(msSince(JobStart));
  }
  P.WallMs = msSince(Start);
  for (size_t I = 0; I < Jobs.size(); ++I) {
    const JobResult &J = Jobs[I];
    std::string Why;
    R.attempt();
    if (!J.Ok)
      R.fail(J.Error);
    else if (!matchesBaseline(J.ArtifactJson, S.Apps[I]->Name, S.Baseline,
                              Why))
      R.fail(Why);
    P.Counters += J.Counters;
    P.MaxRssGrowthMb = std::max(P.MaxRssGrowthMb, J.RssGrowthMb);
  }
  return P;
}

} // namespace

bool perfbench::setUpProfileExact(const RunArgs &A, Setup &S,
                                  std::string &Error) {
  std::vector<std::string> Names = paperAppNames();
  Rng(A.Seed).shuffle(Names);
  return loadSetup(Names, S, Error);
}

void perfbench::runProfileExact(const RunArgs &A, const Setup &S,
                                double SetupS, Report &R) {
  if (!A.Trace) {
    Tracer Off(false);
    int NextJob = 0;
    WorkCounters First;
    PassStats Stats = runPasses(A.Seconds, [&](unsigned Pass,
                                               std::vector<double> &JobMs) {
      PassOutcome P = profilePass(S, Off, NextJob, nullptr, R);
      if (Pass == 0)
        First = P.Counters;
      else
        checkSameCounters(First, P.Counters, R);
      JobMs = P.JobMs;
      return P.WallMs;
    });
    checkRepeatedCounters(A, "profile-exact", First.str(), R);
    reportEndToEnd(R, SetupS, Stats);
    return;
  }

  TracedRun TR;
  server::ArtifactCache Cache(A.WorkDir + "/probe-cache");
  bracketTracedPass(TR, [&](bool Traced) {
    if (!Traced)
      return profilePass(S, TR.T, TR.NextJob, nullptr, R).WallMs;
    // The traced pass also makes the probe calls, inside each job while
    // its profile is alive.
    PassOutcome P = profilePass(S, TR.T, TR.NextJob, &Cache, R);
    TR.PassCounters = P.Counters;
    TR.PassRssGrowthMb = P.MaxRssGrowthMb;
    return P.WallMs - probeMsInsidePass(TR.T);
  });
  probePool(S, TR, R);
  reportPerLayer(A, TR, R);
}
