//===- perfbench/Bench.cpp - Steps shared by the workloads ----------------===//
//
// Part of the CUDAAdvisor reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "server/ArtifactCache.h"
#include "support/Format.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

using namespace perfbench;
using namespace cuadv;
namespace fs = std::filesystem;

uint64_t Rng::next() {
  uint64_t X = (S += 0x9e3779b97f4a7c15ull);
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

std::vector<std::string> perfbench::paperAppNames() {
  std::vector<std::string> Names;
  for (const workloads::Workload &W : workloads::allWorkloads())
    Names.push_back(W.Name);
  return Names;
}

bool perfbench::loadSetup(const std::vector<std::string> &AppNames,
                          Setup &Out, std::string &Error) {
  Out.Apps.clear();
  for (const std::string &Name : AppNames) {
    const workloads::Workload *W = workloads::findWorkload(Name);
    if (!W) {
      Error = "unknown app '" + Name + "'";
      return false;
    }
    Out.Apps.push_back(W);
  }
  if (!gpusim::DeviceSpec::benchPreset("kepler16", Out.Spec)) {
    Error = "missing kepler16 preset";
    return false;
  }
  return core::readProfileArtifact("bench/baselines/workloads.json",
                                   Out.Baseline, Error);
}

std::vector<std::string> perfbench::streamAppNames() {
  return {"backprop", "nn", "nw", "bicg", "bfs"};
}

const BenchWorkload *perfbench::findBenchWorkload(const std::string &Name) {
  static const BenchWorkload All[] = {
      {"profile-exact", setUpProfileExact, runProfileExact},
      {"simulate-j4", setUpSimulateJ4, runSimulateJ4},
      {"service-mixed", setUpServiceMixed, runServiceMixed},
  };
  for (const BenchWorkload &W : All)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

namespace {

/// Spawns one set-up probe; returns its seconds from spawn to set-up
/// done (the child prints its steady-clock time then), or -1.
double spawnSetupProbe(const RunArgs &A, unsigned Index, std::string &Error) {
  std::vector<std::string> Args = {
      "perfbench", "--setup-probe", "1",
      "--workload", A.Workload,
      "--seed", std::to_string(A.Seed),
      "--seconds", "1",
      "--trace", "0",
      "--work", A.WorkDir + "/setup" + std::to_string(Index)};
  std::vector<char *> Argv;
  for (std::string &S : Args)
    Argv.push_back(S.data());
  Argv.push_back(nullptr);
  int Pipe[2];
  if (::pipe(Pipe)) {
    Error = "pipe failed";
    return -1;
  }
  posix_spawn_file_actions_t Actions;
  posix_spawn_file_actions_init(&Actions);
  posix_spawn_file_actions_adddup2(&Actions, Pipe[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&Actions, Pipe[0]);
  pid_t Pid = 0;
  Clock::time_point Start = Clock::now();
  int Rc = posix_spawn(&Pid, "/proc/self/exe", &Actions, nullptr, Argv.data(),
                       environ);
  posix_spawn_file_actions_destroy(&Actions);
  ::close(Pipe[1]);
  std::string Out;
  if (!Rc) {
    char Buf[128];
    for (;;) {
      ssize_t N = ::read(Pipe[0], Buf, sizeof(Buf));
      if (N > 0)
        Out.append(Buf, size_t(N));
      else if (N == 0 || errno != EINTR)
        break;
    }
  }
  ::close(Pipe[0]);
  int Status = 0;
  if (Rc || ::waitpid(Pid, &Status, 0) != Pid || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0 || Out.empty()) {
    Error = "set-up probe process failed";
    return -1;
  }
  int64_t DoneNs = std::strtoll(Out.c_str(), nullptr, 10);
  int64_t StartNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Start.time_since_epoch())
                        .count();
  return double(DoneNs - StartNs) / 1e9;
}

} // namespace

double perfbench::measureSetupSeconds(const RunArgs &A, unsigned Times,
                                      std::string &Error) {
  std::vector<double> Seconds;
  for (unsigned I = 0; I < Times; ++I) {
    double S = spawnSetupProbe(A, I, Error);
    if (S < 0)
      return -1;
    Seconds.push_back(S);
  }
  return median(Seconds);
}

PassStats perfbench::runPasses(
    double Seconds,
    const std::function<double(unsigned Pass, std::vector<double> &JobMs)>
        &Pass) {
  PassStats S;
  Clock::time_point Start = Clock::now();
  for (unsigned P = 0;; ++P) {
    std::vector<double> JobMs;
    S.WallMs.push_back(Pass(P, JobMs));
    S.JobP50Ms.push_back(quantile(JobMs, 0.5));
    S.JobP90Ms.push_back(quantile(JobMs, 0.9));
    S.Jobs += JobMs.size();
    if ((msSince(Start) + median(S.WallMs)) / 1000.0 > Seconds)
      return S;
  }
}

void perfbench::checkSameCounters(const WorkCounters &First,
                                  const WorkCounters &Later, Report &R) {
  R.attempt();
  if (!(Later == First))
    R.fail("pass counters changed: " + First.str() + " then " + Later.str());
}

void perfbench::checkRepeatedCounters(const RunArgs &A, const std::string &Key,
                                      const std::string &Counters,
                                      Report &R) {
  R.note("counters " + Key + ": " + Counters);
  if (A.StateDir.empty())
    return;
  fs::path Path = fs::path(A.StateDir) / ("counters-" + Key + ".txt");
  std::ifstream In(Path);
  if (In) {
    std::stringstream SS;
    SS << In.rdbuf();
    R.attempt();
    if (SS.str() != Counters)
      R.fail("work counters of " + Key + " differ from the first run of " +
             "this build: " + SS.str() + " vs " + Counters);
    return;
  }
  // First run of this build: record, via rename so a killed run never
  // leaves a torn record behind.
  fs::path Tmp = Path;
  Tmp += ".tmp";
  {
    std::ofstream Out(Tmp);
    Out << Counters;
  }
  std::error_code EC;
  fs::rename(Tmp, Path, EC);
}

void perfbench::reportEndToEnd(Report &R, double SetupS, const PassStats &P) {
  std::string Walls;
  for (double W : P.WallMs)
    Walls += formatString(" %.3f", W / 1000.0);
  R.note(formatString("%zu jobs timed; pass walls (s):", P.Jobs) + Walls);
  R.metric("setup_s", SetupS, "s");
  R.metric("wall_s", median(P.WallMs) / 1000.0, "s");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.metric("job_p50_ms", median(P.JobP50Ms), "ms");
  // The tail swings with the host far more than the median does, so it
  // is printed, not reported.
  R.note(formatString("job_p90_ms %.4f (median over passes)",
                      median(P.JobP90Ms)));
}

void perfbench::bracketTracedPass(
    TracedRun &TR, const std::function<double(bool Traced)> &Pass) {
  TR.T.setEnabled(false);
  double Before = Pass(false);
  TR.T.setEnabled(true);
  TR.TracedPassMs = Pass(true);
  TR.T.setEnabled(false);
  TR.UntracedPassMs = (Before + Pass(false)) / 2;
  TR.T.setEnabled(true);
}

void perfbench::probePool(const Setup &S, TracedRun &TR, Report &R) {
  Phase Outer = TR.T.phase();
  TR.T.setPhase(Phase::Probe);
  for (const workloads::Workload *W : S.Apps) {
    gpusim::DeviceSpec J1 = S.Spec, J4 = S.Spec;
    J1.Jobs = 1;
    J4.Jobs = 4;
    JobResult A = runSimulateJob(*W, J1, TR.T, TR.NextJob++,
                                 "pool.simulate_j1");
    JobResult B = runSimulateJob(*W, J4, TR.T, TR.NextJob++,
                                 "pool.simulate_j4");
    R.attempt(2);
    if (!A.Ok)
      R.fail(A.Error);
    if (!B.Ok)
      R.fail(B.Error);
    if (A.Counters.SimCycles != B.Counters.SimCycles ||
        A.Counters.WarpInsts != B.Counters.WarpInsts)
      R.fail(std::string(W->Name) + ": jobs=4 simulated " +
             B.Counters.str() + ", jobs=1 " + A.Counters.str());
    TR.Pool.push_back({W->Name, A.SimulateMs, B.SimulateMs});
  }
  TR.T.setPhase(Outer);
}

void perfbench::probeProfiles(
    const Setup &S, const std::vector<const workloads::Workload *> &Apps,
    const RunArgs &A, TracedRun &TR, Report &R) {
  Phase Outer = TR.T.phase();
  TR.T.setPhase(Phase::Probe);
  server::ArtifactCache Cache(A.WorkDir + "/probe-cache");
  gpusim::DeviceSpec Spec = S.Spec;
  Spec.Jobs = 1;
  for (const workloads::Workload *W : Apps) {
    R.attempt();
    JobResult J = runProfileJob(*W, Spec, TR.T, TR.NextJob++, &Cache);
    std::string Why;
    if (!J.Ok)
      R.fail(J.Error);
    else if (!matchesBaseline(J.ArtifactJson, W->Name, S.Baseline, Why))
      R.fail(Why);
    TR.ProbeCounters += J.Counters;
    TR.ProbeRssGrowthMb = std::max(TR.ProbeRssGrowthMb, J.RssGrowthMb);
  }
  TR.T.setPhase(Outer);
}

double perfbench::probeMsInsidePass(const Tracer &T) {
  const std::vector<Span> &Spans = T.spans();
  double Ms = 0;
  for (const Span &S : Spans)
    if (S.Ph == Phase::Probe && S.Parent >= 0 &&
        Spans[size_t(S.Parent)].Ph == Phase::Pass)
      Ms += S.ms();
  return Ms;
}

void perfbench::reportPerLayer(const RunArgs &A, TracedRun &TR, Report &R) {
  const Tracer &T = TR.T;
  // Each metric comes from where its layer ran: the pass when the pass
  // calls that layer, otherwise the probe.
  auto SourceOf = [&](const char *Span) {
    return T.count(Span, Phase::Pass) ? Phase::Pass : Phase::Probe;
  };
  auto LayerMs = [&](const char *Span) {
    return T.totalMs(Span, SourceOf(Span));
  };

  R.metric("frontend.compile_ms", LayerMs("frontend.compile"), "ms");
  R.metric("instrument.run_ms", LayerMs("instrument.run"), "ms");
  R.metric("gpusim.codegen_ms", LayerMs("gpusim.codegen"), "ms");
  double SimMs = LayerMs("gpusim.simulate");
  R.metric("simulate_ms", SimMs, "ms");
  const WorkCounters &Sim = SourceOf("gpusim.simulate") == Phase::Pass
                                ? TR.PassCounters
                                : TR.ProbeCounters;
  R.metric("gpusim.warp_insts", double(Sim.WarpInsts), "count");
  R.metric("gpusim.sim_cycles", double(Sim.SimCycles), "count");
  R.metric("gpusim.hook_events", double(Sim.HookEvents), "count");
  R.metric("gpusim.winst_per_s",
           SimMs > 0 ? double(Sim.WarpInsts) / (SimMs / 1000.0) : 0, "1/s");

  double J1 = 0, J4 = 0, MinScaling = 0;
  for (const TracedRun::PoolApp &P : TR.Pool) {
    J1 += P.J1Ms;
    J4 += P.J4Ms;
    double X = P.J4Ms > 0 ? P.J1Ms / P.J4Ms : 0;
    MinScaling = MinScaling == 0 ? X : std::min(MinScaling, X);
    R.note(formatString("pool %-10s jobs=1 %9.3f ms  jobs=4 %9.3f ms  %.2fx",
                        P.App.c_str(), P.J1Ms, P.J4Ms, X));
  }
  R.metric("pool.scaling_x", J4 > 0 ? J1 / J4 : 0, "x");
  R.metric("pool.min_scaling_x", MinScaling, "x");

  bool PassProfiles = SourceOf("instrument.run") == Phase::Pass;
  const WorkCounters &Prof = PassProfiles ? TR.PassCounters : TR.ProbeCounters;
  R.metric("profiler.mem_events", double(Prof.MemEvents), "count");
  R.metric("profiler.lane_payloads", double(Prof.LanePayloads), "count");
  R.metric("simulate.rss_growth_mb",
           PassProfiles ? TR.PassRssGrowthMb : TR.ProbeRssGrowthMb, "MB");

  double AnalyzeMs = LayerMs("analysis.build");
  R.metric("analyze_ms", AnalyzeMs, "ms");
  // bypass and inspect are consumers: they re-run rd and md internally,
  // so the cost of computing each analysis once is the sum of the others.
  static const struct {
    const char *Name;
    bool Leaf;
  } Calls[] = {{"rd", true},      {"line_rd", true}, {"md", true},
               {"bd", true},      {"bank", true},    {"heat", true},
               {"bypass", false}, {"ca", true},      {"static", true},
               {"inspect", false}, {"sampling", true}};
  double Leaves = 0;
  for (const auto &C : Calls) {
    double Ms = T.totalMs(std::string("analysis.") + C.Name, Phase::Probe);
    if (C.Leaf)
      Leaves += Ms;
    R.metric(std::string("analysis.") + C.Name + "_ms", Ms, "ms");
  }
  R.metric("analysis.redundancy_x", Leaves > 0 ? AnalyzeMs / Leaves : 0, "x");

  R.metric("artifact.serialize_ms", LayerMs("artifact.serialize"), "ms");
  R.metric("artifact.bytes",
           double((SourceOf("artifact.serialize") == Phase::Pass
                       ? TR.PassCounters
                       : TR.ProbeCounters)
                      .ArtifactBytes),
           "bytes");
  R.metric("server.key_ms", T.totalMs("server.key", Phase::Probe), "ms");
  R.metric("cache.lookup_ms", T.totalMs("cache.lookup", Phase::Probe), "ms");
  R.metric("cache.store_ms", T.totalMs("cache.store", Phase::Probe), "ms");
  uint64_t Hits = TR.PassHasCache ? TR.CacheHits
                                  : T.count("cache.lookup", Phase::Probe);
  uint64_t Misses = TR.PassHasCache ? TR.CacheMisses : 0;
  R.metric("server.cache_hit_ratio",
           Hits + Misses ? double(Hits) / double(Hits + Misses) : 0, "ratio");
  R.metric("cache.hits", double(Hits), "count");
  R.metric("cache.misses", double(Misses), "count");

  std::map<std::string, double> PassSelf = T.selfMsByLayer(Phase::Pass);
  std::map<std::string, double> ProbeSelf = T.selfMsByLayer(Phase::Probe);
  for (const char *L : {"frontend", "instrument", "gpusim", "profiler",
                        "analysis", "artifact", "server", "bench"})
    R.metric(std::string("self.") + L + "_ms",
             PassSelf.count(L) ? PassSelf[L] : ProbeSelf[L], "ms");

  // The part of the traced pass that no layer span covers: harness glue
  // between and around the layer calls.
  const std::vector<Span> &Spans = T.spans();
  double Covered = 0;
  for (const Span &S : Spans)
    if (S.Ph == Phase::Pass && S.Layer != "bench" &&
        (S.Parent < 0 || Spans[size_t(S.Parent)].Layer == "bench"))
      Covered += S.ms();
  R.metric("trace.unattributed_ms", TR.TracedPassMs - Covered, "ms");
  R.metric("trace.untraced_pass_s", TR.UntracedPassMs / 1000.0, "s");
  R.metric("trace.traced_pass_s", TR.TracedPassMs / 1000.0, "s");
  R.metric("trace.overhead_pct",
           TR.UntracedPassMs > 0
               ? 100.0 * (TR.TracedPassMs - TR.UntracedPassMs) /
                     TR.UntracedPassMs
               : 0,
           "%");
  R.metric("trace.spans", double(Spans.size()), "count");

  if (!A.TraceOut.empty()) {
    std::string Error;
    if (!T.writeChromeTrace(A.TraceOut, Error))
      R.note("trace not written: " + Error);
    else
      R.note("trace: " + A.TraceOut);
  }
}
