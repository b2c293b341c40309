//===- perfbench/Pipeline.h - The layer calls, timed ------------*- C++ -*-===//
//
// Part of the CUDAAdvisor reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One job of each kind, driven through the same public library calls
/// that `cuadvisor --mode profile` and `cuadvisord` make, with a span
/// around each call into a layer:
///
///   compileWorkload -> InstrumentationEngine::run -> Program::compile
///   -> Workload::Run (Profiler attached) -> buildWorkloadProfile
///   -> artifactToJson + writeJson
///
/// Span names double as per-layer metric stems (README.md).
///
//===----------------------------------------------------------------------===//

#ifndef CUADV_PERFBENCH_PIPELINE_H
#define CUADV_PERFBENCH_PIPELINE_H

#include "Harness.h"

#include "core/analysis/ProfileArtifact.h"
#include "gpusim/DeviceSpec.h"
#include "workloads/Workloads.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cuadv::server {
class ArtifactCache;
} // namespace cuadv::server

namespace perfbench {

/// Deterministic work counters: for fixed inputs they repeat exactly
/// from run to run and at any worker count.
struct WorkCounters {
  uint64_t WarpInsts = 0;
  uint64_t SimCycles = 0;
  uint64_t HookEvents = 0;
  uint64_t MemEvents = 0;
  uint64_t LanePayloads = 0;
  uint64_t ArtifactBytes = 0; ///< Without the (wall-clock) wall section.

  WorkCounters &operator+=(const WorkCounters &O);
  bool operator==(const WorkCounters &O) const = default;
  std::string str() const;
};

struct JobResult {
  bool Ok = true;
  std::string Error; ///< Set when !Ok.
  WorkCounters Counters;
  double SimulateMs = 0;   ///< Wall time of Workload::Run.
  double RssGrowthMb = 0;  ///< RSS after Workload::Run minus before.
  std::string ArtifactJson; ///< Profile jobs only.
};

/// The exact, fully instrumented profile of \p W (shared memory
/// included, as `cuadvisor --mode profile` does), jobs=Spec.Jobs.
/// Validation failures and faults are returned, never fatal. With a
/// \p ProbeCache, the job also makes the probe calls once while its
/// profile is alive: each public analysis call, and the cache path
/// (key, store, lookup) as cuadvisord would take it.
JobResult runProfileJob(const cuadv::workloads::Workload &W,
                        const cuadv::gpusim::DeviceSpec &Spec, Tracer &T,
                        int Job,
                        cuadv::server::ArtifactCache *ProbeCache = nullptr);

/// \p W simulated without instrumentation (no hooks, no profiler) at
/// Spec.Jobs host workers. \p SimSpan names the simulate span.
JobResult runSimulateJob(const cuadv::workloads::Workload &W,
                         const cuadv::gpusim::DeviceSpec &Spec, Tracer &T,
                         int Job,
                         const std::string &SimSpan = "gpusim.simulate");

/// True when the deterministic sections of \p ArtifactJson's entry for
/// \p App equal the baseline's at zero tolerance (core::ProfileDiff).
bool matchesBaseline(const std::string &ArtifactJson, const std::string &App,
                     const cuadv::core::ProfileArtifact &Baseline,
                     std::string &Why);

} // namespace perfbench

#endif // CUADV_PERFBENCH_PIPELINE_H
