//===- perfbench/Harness.h - Timing, spans and the result line --*- C++ -*-===//
//
// Part of the CUDAAdvisor reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measurement plumbing shared by the three perfbench workloads:
/// a steady clock, quantiles, resident-memory probes, an in-memory span
/// recorder written out as Chrome trace_events, and the run report whose
/// last line is the machine-readable result.
///
//===----------------------------------------------------------------------===//

#ifndef CUADV_PERFBENCH_HARNESS_H
#define CUADV_PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed since \p Start.
double msSince(Clock::time_point Start);

/// Linear-interpolation quantile (Q in [0, 1]) of \p V; 0 when empty.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}

/// Peak resident set of this process so far (getrusage), in MB.
double peakRssMb();
/// Current resident set of this process (/proc/self/statm), in MB.
double currentRssMb();

/// The trace phases: the workload's own pass, and the probe calls the
/// traced run makes once on top of it (docs in README.md).
enum class Phase { Pass, Probe };

/// One recorded span. Times are nanoseconds since the tracer started.
struct Span {
  std::string Name;  ///< e.g. "frontend.compile", "analysis.rd".
  std::string Layer; ///< Module name, or "bench" for harness glue.
  Phase Ph = Phase::Pass;
  int Parent = -1; ///< Index of the enclosing span, -1 at top level.
  int Job = -1;    ///< Job id shared by every span of one job.
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;

  double ms() const { return double(EndNs - StartNs) / 1e6; }
};

/// Keeps spans in memory while the run measures; written once at exit.
/// A disabled tracer records nothing and costs one branch per span.
class Tracer {
public:
  explicit Tracer(bool Enabled) : On(Enabled), Epoch(Clock::now()) {}

  void setEnabled(bool E) { On = E; }
  Phase phase() const { return Ph; }
  void setPhase(Phase P) { Ph = P; }

  /// Opens a span nested in the innermost open one; -1 when disabled.
  int begin(const std::string &Name, const std::string &Layer, int Job);
  void end(int Id);

  const std::vector<Span> &spans() const { return Spans; }

  /// Sum of the durations of every span named \p Name in phase \p P.
  double totalMs(const std::string &Name, Phase P) const;
  /// Number of spans named \p Name in phase \p P.
  size_t count(const std::string &Name, Phase P) const;
  /// Self time per layer over the spans of phase \p P: each span's
  /// duration minus the part its child spans cover.
  std::map<std::string, double> selfMsByLayer(Phase P) const;

  /// Writes every span as a Chrome trace_events complete event, with the
  /// parent span and job id in its args. False + \p Error on I/O failure.
  bool writeChromeTrace(const std::string &Path, std::string &Error) const;

private:
  uint64_t nowNs() const;

  bool On;
  Phase Ph = Phase::Pass;
  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<int> Open; ///< Stack of open span indices.
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
public:
  ScopedSpan(Tracer &T, const std::string &Name, const std::string &Layer,
             int Job = -1)
      : T(T), Id(T.begin(Name, Layer, Job)) {}
  ~ScopedSpan() { T.end(Id); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  Tracer &T;
  int Id;
};

/// What one run measured and whether its outputs were right.
class Report {
public:
  void attempt(uint64_t N = 1) { Attempted += N; }
  /// Counts one failed operation; the first few reasons are printed.
  void fail(const std::string &Why);

  /// Records a metric of the result line (insertion order is kept).
  void metric(const std::string &Name, double Value, const std::string &Unit);
  /// Records a human-readable line printed above the result line.
  void note(const std::string &Line) { Notes.push_back(Line); }

  /// Prints the notes, the failures, the metric table, and as the last
  /// line the JSON result {"correct", "attempted", "failed", "metrics"}.
  void print() const;

private:
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  std::vector<std::string> Notes;
  std::vector<Metric> Metrics;
};

} // namespace perfbench

#endif // CUADV_PERFBENCH_HARNESS_H
