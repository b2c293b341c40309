//===- perfbench/Harness.cpp - Timing, spans and the result line ----------===//
//
// Part of the CUDAAdvisor reproduction project.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/JSON.h"
#include "support/telemetry/TraceWriter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sys/resource.h>
#include <unistd.h>

using namespace perfbench;
using cuadv::support::JsonValue;

double perfbench::msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double perfbench::peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux.
}

double perfbench::currentRssMb() {
  long Pages = 0, Resident = 0;
  if (FILE *F = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(F, "%ld %ld", &Pages, &Resident) != 2)
      Resident = 0;
    std::fclose(F);
  }
  return double(Resident) * double(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

uint64_t Tracer::nowNs() const {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - Epoch)
                      .count());
}

int Tracer::begin(const std::string &Name, const std::string &Layer,
                  int Job) {
  if (!On)
    return -1;
  Span S;
  S.Name = Name;
  S.Layer = Layer;
  S.Ph = Ph;
  S.Parent = Open.empty() ? -1 : Open.back();
  // A span without its own job id belongs to its parent's job.
  S.Job = Job >= 0 || S.Parent < 0 ? Job : Spans[size_t(S.Parent)].Job;
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  Open.push_back(int(Spans.size() - 1));
  return Open.back();
}

void Tracer::end(int Id) {
  if (Id < 0)
    return;
  Spans[size_t(Id)].EndNs = nowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate a stray order anyway.
  auto It = std::find(Open.begin(), Open.end(), Id);
  if (It != Open.end())
    Open.erase(It);
}

double Tracer::totalMs(const std::string &Name, Phase P) const {
  double Sum = 0;
  for (const Span &S : Spans)
    if (S.Ph == P && S.Name == Name)
      Sum += S.ms();
  return Sum;
}

size_t Tracer::count(const std::string &Name, Phase P) const {
  return size_t(std::count_if(Spans.begin(), Spans.end(), [&](const Span &S) {
    return S.Ph == P && S.Name == Name;
  }));
}

std::map<std::string, double> Tracer::selfMsByLayer(Phase P) const {
  std::vector<double> ChildMs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildMs[size_t(S.Parent)] += S.ms();
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Ph == P)
      Self[Spans[I].Layer] += Spans[I].ms() - ChildMs[I];
  return Self;
}

bool Tracer::writeChromeTrace(const std::string &Path,
                              std::string &Error) const {
  cuadv::telemetry::TraceWriter W;
  const int64_t Pid = cuadv::telemetry::TraceWriter::HostPid;
  W.setProcessName(Pid, "perfbench");
  W.setThreadName(Pid, 0, "harness");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    JsonValue Args = JsonValue::object();
    Args.set("span", JsonValue(int64_t(I)));
    Args.set("parent", JsonValue(int64_t(S.Parent)));
    Args.set("job", JsonValue(int64_t(S.Job)));
    Args.set("phase", JsonValue(S.Ph == Phase::Pass ? "pass" : "probe"));
    // One track per job keeps each job's span tree on its own row.
    W.completeEvent(Pid, S.Job + 1, S.Layer, S.Name, S.StartNs / 1000,
                    (S.EndNs - S.StartNs) / 1000, std::move(Args));
  }
  return W.writeFile(Path, Error);
}

void Report::fail(const std::string &Why) {
  ++Failed;
  if (Failures.size() < 20)
    Failures.push_back(Why);
}

void Report::metric(const std::string &Name, double Value,
                    const std::string &Unit) {
  Metrics.push_back({Name, Value, Unit});
}

void Report::print() const {
  for (const std::string &L : Notes)
    std::printf("%s\n", L.c_str());
  for (const std::string &F : Failures)
    std::printf("FAILED: %s\n", F.c_str());
  std::printf("error_rate %.6f (%llu failed of %llu attempted)\n",
              Attempted ? double(Failed) / double(Attempted) : 0.0,
              static_cast<unsigned long long>(Failed),
              static_cast<unsigned long long>(Attempted));
  for (const Metric &M : Metrics)
    std::printf("  %-28s %16.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  // Hand-formatted so every value keeps all of its digits (%.17g).
  std::string Line = "{\"correct\": ";
  Line += Failed == 0 && Attempted > 0 ? "true" : "false";
  Line += ", \"attempted\": " + std::to_string(Attempted);
  Line += ", \"failed\": " + std::to_string(Failed);
  Line += ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I) {
    char Buf[64];
    double V = std::isfinite(Metrics[I].Value) ? Metrics[I].Value : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Line += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " +
            Buf + ", \"unit\": \"" + Metrics[I].Unit + "\"}";
  }
  Line += "}}";
  std::printf("%s\n", Line.c_str());
  std::fflush(stdout);
}
