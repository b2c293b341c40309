//===- perfbench/Pipeline.cpp - The layer calls, timed from outside -------===//
//
// Part of the CUDAAdvisor reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "core/analysis/Advisor.h"
#include "core/analysis/BranchDivergence.h"
#include "core/analysis/CycleAccounting.h"
#include "core/analysis/Inspection.h"
#include "core/analysis/MemoryDivergence.h"
#include "core/analysis/ObjectHeat.h"
#include "core/analysis/ProfileDiff.h"
#include "core/analysis/Reports.h"
#include "core/analysis/ReuseDistance.h"
#include "core/analysis/Sampling.h"
#include "core/analysis/SharedMemory.h"
#include "core/analysis/StaticModel.h"
#include "core/instrument/InstrumentationEngine.h"
#include "core/profiler/Profiler.h"
#include "gpusim/Program.h"
#include "ir/Printer.h"
#include "ir/analysis/Uniformity.h"
#include "runtime/Runtime.h"
#include "server/ArtifactCache.h"
#include "server/Protocol.h"
#include "support/JSON.h"

#include <memory>

using namespace perfbench;
using namespace cuadv;
using support::JsonValue;

WorkCounters &WorkCounters::operator+=(const WorkCounters &O) {
  WarpInsts += O.WarpInsts;
  SimCycles += O.SimCycles;
  HookEvents += O.HookEvents;
  MemEvents += O.MemEvents;
  LanePayloads += O.LanePayloads;
  ArtifactBytes += O.ArtifactBytes;
  return *this;
}

std::string WorkCounters::str() const {
  return "warp_insts=" + std::to_string(WarpInsts) +
         " sim_cycles=" + std::to_string(SimCycles) +
         " hook_events=" + std::to_string(HookEvents) +
         " mem_events=" + std::to_string(MemEvents) +
         " lane_payloads=" + std::to_string(LanePayloads) +
         " artifact_bytes=" + std::to_string(ArtifactBytes);
}

namespace {

/// Launch totals of one run, from the simulator's own statistics.
WorkCounters launchCounters(const workloads::RunOutcome &O) {
  WorkCounters C;
  for (const gpusim::KernelStats &S : O.Launches) {
    C.WarpInsts += S.WarpInstructions;
    C.SimCycles += S.Cycles;
    C.HookEvents += S.HookInvocations;
  }
  return C;
}

void checkOutcome(const workloads::Workload &W,
                  const workloads::RunOutcome &O, JobResult &R) {
  if (O.Ok && !O.faulted())
    return;
  R.Ok = false;
  R.Error = std::string(W.Name) + ": " +
            (O.faulted() ? O.firstTrap()->render() : O.Message);
}

/// A stand-in for the server's device-spec key text: the preset name
/// and the sampling spec, the parts a profile job varies.
std::string specKeyText(const gpusim::DeviceSpec &Spec) {
  return Spec.Name + "|sample=" + Spec.Sampling.str();
}

/// Makes each public analysis call once over \p Prof, one span each. The
/// spans carry layer "analysis.calls" so that these single calls, made
/// on top of the pipeline, stay out of the analysis layer's self time.
void probeAnalyses(Tracer &T, const core::Profiler &Prof,
                   const ir::Module &M, const gpusim::DeviceSpec &Spec,
                   unsigned WarpsPerCTA) {
  const auto &Profiles = Prof.profiles();
  const unsigned Line = Spec.L1LineBytes;
  core::WorkloadProfile Scratch;
  {
    ScopedSpan S(T, "analysis.rd", "analysis.calls");
    for (const auto &P : Profiles)
      core::analyzeReuseDistance(*P, {});
  }
  {
    ScopedSpan S(T, "analysis.line_rd", "analysis.calls");
    core::ReuseDistanceConfig C;
    C.Gran = core::ReuseDistanceConfig::Granularity::CacheLine;
    C.LineBytes = Line;
    for (const auto &P : Profiles)
      core::analyzeReuseDistance(*P, C);
  }
  {
    ScopedSpan S(T, "analysis.md", "analysis.calls");
    for (const auto &P : Profiles)
      core::analyzeMemoryDivergence(*P, Line);
  }
  {
    ScopedSpan S(T, "analysis.bd", "analysis.calls");
    for (const auto &P : Profiles)
      core::analyzeBranchDivergence(*P);
  }
  {
    ScopedSpan S(T, "analysis.bank", "analysis.calls");
    for (const auto &P : Profiles)
      core::analyzeBankConflicts(*P);
  }
  {
    ScopedSpan S(T, "analysis.heat", "analysis.calls");
    core::computeObjectHeat(Prof, Line);
  }
  {
    ScopedSpan S(T, "analysis.bypass", "analysis.calls");
    core::adviseBypassForRun(Prof, Spec, WarpsPerCTA);
  }
  {
    ScopedSpan S(T, "analysis.ca", "analysis.calls");
    core::appendCycleAccounting(Scratch, Prof);
  }
  {
    // The static side of the profile: uniformity agreement with the
    // measured divergence plus the range/trip-count cost model.
    ScopedSpan S(T, "analysis.static", "analysis.calls");
    ir::analysis::ModuleUniformity MU(M);
    for (const auto &P : Profiles)
      core::compareStaticDivergence(M, MU, *P);
    core::appendStaticModel(Scratch, M, core::deriveLaunchFacts(M, Prof));
  }
  {
    ScopedSpan S(T, "analysis.inspect", "analysis.calls");
    core::runInspections({Prof, M, Spec, WarpsPerCTA});
  }
  {
    ScopedSpan S(T, "analysis.sampling", "analysis.calls");
    core::appendSamplingSection(Scratch, Prof, Spec);
  }
}

/// cuadvisord's cache path for one finished job, called from outside:
/// key (compile, printModule, cacheKeyFor), store, then lookup.
void probeCache(Tracer &T, server::ArtifactCache &Cache,
                const workloads::Workload &W, const gpusim::DeviceSpec &Spec,
                const std::string &ArtifactJson, JobResult &R) {
  std::string Key;
  {
    ScopedSpan S(T, "server.key", "server");
    ir::Context Ctx;
    frontend::CompileResult CR = workloads::compileWorkload(W, Ctx);
    if (!CR.succeeded()) {
      R.Ok = false;
      R.Error = std::string(W.Name) + ": key compile failed";
      return;
    }
    server::JobRequest Req;
    Req.App = W.Name;
    Key = server::cacheKeyFor(ir::printModule(*CR.M),
                              support::writeJson(server::requestToJson(Req)),
                              specKeyText(Spec));
  }
  std::string Error, Back;
  {
    ScopedSpan S(T, "cache.store", "server");
    Cache.store(Key, ArtifactJson, Error);
  }
  bool Hit;
  {
    ScopedSpan S(T, "cache.lookup", "server");
    Hit = Cache.lookup(Key, Back);
  }
  if (!Hit || Back != ArtifactJson) {
    R.Ok = false;
    R.Error = std::string(W.Name) + ": cache did not return the stored "
                                    "artifact " + Error;
  }
}

/// What one profiled app owns; torn down inside a span of its own.
struct ProfiledApp {
  ir::Context Ctx;
  std::unique_ptr<ir::Module> M;
  core::InstrumentationInfo Info;
  std::unique_ptr<gpusim::Program> Prog;
  std::unique_ptr<runtime::Runtime> RT;
  core::Profiler Prof;
};

} // namespace

JobResult perfbench::runProfileJob(const workloads::Workload &W,
                                   const gpusim::DeviceSpec &Spec, Tracer &T,
                                   int Job,
                                   server::ArtifactCache *ProbeCache) {
  JobResult R;
  ScopedSpan Root(T, std::string("job ") + W.Name, "bench", Job);
  auto App = std::make_unique<ProfiledApp>();
  {
    ScopedSpan S(T, "frontend.compile", "frontend");
    frontend::CompileResult CR = workloads::compileWorkload(W, App->Ctx);
    if (!CR.succeeded()) {
      R.Ok = false;
      R.Error = CR.firstError(W.SourceFile);
      return R;
    }
    App->M = std::move(CR.M);
  }
  {
    ScopedSpan S(T, "instrument.run", "instrument");
    core::InstrumentationConfig Cfg = core::InstrumentationConfig::full();
    Cfg.GlobalMemoryOnly = false;
    App->Info = core::InstrumentationEngine(Cfg).run(*App->M);
  }
  {
    ScopedSpan S(T, "gpusim.codegen", "gpusim");
    App->Prog = gpusim::Program::compile(*App->M);
  }
  {
    ScopedSpan S(T, "runtime.init", "gpusim");
    App->RT = std::make_unique<runtime::Runtime>(Spec);
  }
  {
    ScopedSpan S(T, "profiler.attach", "profiler");
    App->Prof.attach(*App->RT);
    App->Prof.setInstrumentationInfo(&App->Info);
    App->Prof.setSamplingSpec(Spec.Sampling);
  }
  workloads::RunOutcome Outcome;
  {
    ScopedSpan S(T, "gpusim.simulate", "gpusim");
    double Before = currentRssMb();
    Clock::time_point Start = Clock::now();
    Outcome = W.Run(*App->RT, *App->Prog, {});
    R.SimulateMs = msSince(Start);
    R.RssGrowthMb = currentRssMb() - Before;
  }
  checkOutcome(W, Outcome, R);
  R.Counters = launchCounters(Outcome);
  for (const auto &P : App->Prof.profiles()) {
    R.Counters.MemEvents += P->MemEvents.size();
    for (const core::MemEventRec &E : P->MemEvents)
      R.Counters.LanePayloads += E.Lanes.size();
  }

  core::ProfileArtifact A;
  A.Preset = "kepler16";
  {
    ScopedSpan S(T, "analysis.build", "analysis");
    core::WorkloadProfileInputs In{App->Prof,          *App->M,
                                   Spec,               W.WarpsPerCTA,
                                   &App->RT->faultLog(), &App->RT->counters(),
                                   R.SimulateMs};
    A.Workloads.push_back(core::buildWorkloadProfile(W.Name, In));
  }
  {
    ScopedSpan S(T, "artifact.serialize", "artifact");
    R.ArtifactJson = support::writeJson(core::artifactToJson(A));
  }
  // The wall section's digits vary run to run; the counter covers the
  // deterministic sections only.
  A.Workloads.front().Wall.clear();
  R.Counters.ArtifactBytes = support::writeJson(core::artifactToJson(A)).size();

  if (ProbeCache) {
    Phase Outer = T.phase();
    T.setPhase(Phase::Probe);
    probeAnalyses(T, App->Prof, *App->M, Spec, W.WarpsPerCTA);
    probeCache(T, *ProbeCache, W, Spec, R.ArtifactJson, R);
    T.setPhase(Outer);
  }
  {
    // Dropping the trace is the profiler's cost too (lavaMD holds
    // hundreds of MB of lane payloads).
    ScopedSpan S(T, "profiler.release", "profiler");
    App.reset();
  }
  return R;
}

JobResult perfbench::runSimulateJob(const workloads::Workload &W,
                                    const gpusim::DeviceSpec &Spec,
                                    Tracer &T, int Job,
                                    const std::string &SimSpan) {
  JobResult R;
  ScopedSpan Root(T, std::string("job ") + W.Name, "bench", Job);
  ir::Context Ctx;
  std::unique_ptr<ir::Module> M;
  {
    ScopedSpan S(T, "frontend.compile", "frontend");
    frontend::CompileResult CR = workloads::compileWorkload(W, Ctx);
    if (!CR.succeeded()) {
      R.Ok = false;
      R.Error = CR.firstError(W.SourceFile);
      return R;
    }
    M = std::move(CR.M);
  }
  std::unique_ptr<gpusim::Program> Prog;
  {
    ScopedSpan S(T, "gpusim.codegen", "gpusim");
    Prog = gpusim::Program::compile(*M);
  }
  std::unique_ptr<runtime::Runtime> RT;
  {
    ScopedSpan S(T, "runtime.init", "gpusim");
    RT = std::make_unique<runtime::Runtime>(Spec);
  }
  workloads::RunOutcome Outcome;
  {
    ScopedSpan S(T, SimSpan, "gpusim");
    Clock::time_point Start = Clock::now();
    Outcome = W.Run(*RT, *Prog, {});
    R.SimulateMs = msSince(Start);
  }
  checkOutcome(W, Outcome, R);
  R.Counters = launchCounters(Outcome);
  return R;
}

bool perfbench::matchesBaseline(const std::string &ArtifactJson,
                                const std::string &App,
                                const core::ProfileArtifact &Baseline,
                                std::string &Why) {
  JsonValue Doc;
  core::ProfileArtifact Current;
  if (!support::parseJson(ArtifactJson, Doc, Why) ||
      !core::artifactFromJson(Doc, Current, Why))
    return false;
  core::DiffOptions Opts; // Deterministic tolerance 0: exact.
  Opts.Apps = {App};
  core::DiffResult D = core::diffArtifacts(Baseline, Current, Opts);
  const core::DeltaCounts &C = D.Deterministic;
  if (!D.GateFailed && !C.Improved && !C.Regressed && !C.New && !C.Missing &&
      C.Unchanged)
    return true;
  Why = App + ": artifact differs from bench/baselines";
  for (const core::WorkloadDelta &W : D.Workloads)
    for (const core::MetricDelta &M : W.Metrics)
      if (M.Deterministic && M.Class != core::DeltaClass::Unchanged) {
        Why += " (first: " + M.Metric + " " +
               core::deltaClassName(M.Class) + ")";
        return false;
      }
  return false;
}
