//===- perfbench/ServiceMixed.cpp - The service-mixed workload ------------===//
//
// Part of the CUDAAdvisor reproduction project.
//
// An in-process cuadvisord Server (1 worker, a fresh artifact cache per
// pass) and one closed-loop client on its Unix socket. The client sends
// a request stream generated from the seed, and the server sees only
// those requests:
//
//   - one exact profile request per stream app first (cache misses),
//   - 100 more rounds of the same requests (cache hits),
//   - per app two sampled (warp:8@<seed>) and two filtered (block hooks
//     excluded plus a seed-numbered out-of-range line rule) requests,
//     each with a fresh seed, so each is a distinct key (misses),
//   - the oob-store and div-zero fault demos (structured errors),
//
// everything after the first five shuffled. Reads of the cache sit
// beside writes here; the frontend, the IR printer, hashing and the
// cache do most of the work of a hit.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "server/Client.h"
#include "server/Server.h"
#include "support/Format.h"
#include "support/JSON.h"

#include <filesystem>
#include <map>
#include <memory>
#include <set>

using namespace perfbench;
using namespace cuadv;
namespace fs = std::filesystem;

namespace {

// 100 rounds keep hits above 90% of a pass's requests by a margin, so
// the pass's job p50 and p90 both fall among cache hits.
constexpr unsigned HitRounds = 100;
constexpr unsigned SampledPerApp = 2;
constexpr unsigned FilteredPerApp = 2;

struct Request {
  enum Kind { Exact, Sampled, Filtered, Demo } K = Exact;
  std::string App;
  bool ExpectHit = false;
  std::string ExpectError; ///< Demos: the trap kind answered.
  std::string Json;        ///< The wire request.
};

const char *kindName(Request::Kind K) {
  switch (K) {
  case Request::Exact:
    return "exact";
  case Request::Sampled:
    return "sampled";
  case Request::Filtered:
    return "filtered";
  case Request::Demo:
    return "demo";
  }
  return "?";
}

/// The request stream of pass \p Pass under \p Seed.
std::vector<Request> makeStream(uint64_t Seed, unsigned Pass) {
  Rng G(Seed * 0x100000001b3ull + Pass);
  std::set<uint64_t> Used;
  auto Fresh = [&] {
    uint64_t V;
    do
      V = 1 + G.below(1u << 30);
    while (!Used.insert(V).second);
    return V;
  };
  auto Make = [](Request::Kind K, const std::string &App,
                 const std::string &Sample, const std::string &Filter) {
    Request R;
    R.K = K;
    R.App = App;
    server::JobRequest J;
    J.App = App;
    J.Sample = Sample;
    J.Filter = Filter;
    R.Json = support::writeJson(server::requestToJson(J));
    return R;
  };

  std::vector<Request> Warm, Body;
  for (const std::string &App : streamAppNames()) {
    Warm.push_back(Make(Request::Exact, App, "", ""));
    for (unsigned I = 0; I < HitRounds; ++I) {
      Body.push_back(Warm.back());
      Body.back().ExpectHit = true;
    }
    for (unsigned I = 0; I < SampledPerApp; ++I)
      Body.push_back(Make(Request::Sampled, App,
                          "warp:8@" + std::to_string(Fresh()), ""));
    for (unsigned I = 0; I < FilteredPerApp; ++I)
      Body.push_back(Make(Request::Filtered, App, "",
                          "exclude kind:block\nexclude line:" +
                              std::to_string(100000 + Fresh()) + "\n"));
  }
  Request Oob = Make(Request::Demo, "oob-store", "", "");
  Oob.ExpectError = "oob-global";
  Request Div = Make(Request::Demo, "div-zero", "", "");
  Div.ExpectError = "div-zero";
  Body.push_back(Oob);
  Body.push_back(Div);
  G.shuffle(Warm);
  G.shuffle(Body);
  Warm.insert(Warm.end(), Body.begin(), Body.end());
  return Warm;
}

struct PassOutcome {
  double WallMs = 0;
  std::vector<double> JobMs; ///< Every request's latency, in stream order.
  uint64_t Hits = 0, Misses = 0, Errors = 0;
};

/// Latencies by request class over every pass of the run.
struct Latencies {
  std::vector<double> Hit, Miss;
};

/// The artifact without its wall-clock section.
std::string deterministicBytes(const support::JsonValue &Artifact) {
  core::ProfileArtifact A;
  std::string Error;
  if (!core::artifactFromJson(Artifact, A, Error))
    return "unreadable artifact: " + Error;
  for (core::WorkloadProfile &W : A.Workloads)
    W.Wall.clear();
  return support::writeJson(core::artifactToJson(A));
}

/// Checks one response against what its request must produce: \p Stored
/// holds this pass's exact artifacts, \p FirstPass the run's first ones.
void checkResponse(const Request &Q, const server::SubmitResult &S,
                   std::map<std::string, std::string> &Stored,
                   std::map<std::string, std::string> &FirstPass,
                   Report &R) {
  std::string Where = std::string(kindName(Q.K)) + " " + Q.App + ": ";
  if (!S.TransportOk) {
    R.fail(Where + (S.RetriesExhausted ? "RETRY_LATER never cleared"
                                       : "transport: " + S.Error));
    return;
  }
  const server::JobResponse &Resp = S.Response;
  if (Q.K == Request::Demo) {
    if (Resp.Status != "error" || Resp.ErrorCode != Q.ExpectError ||
        !Resp.HasTrap)
      R.fail(Where + "expected structured error " + Q.ExpectError +
             ", got " + Resp.Status + " " + Resp.ErrorCode);
    return;
  }
  if (!Resp.ok() || !Resp.HasArtifact) {
    R.fail(Where + Resp.Status + " " + Resp.ErrorCode + " " +
           Resp.ErrorMessage);
    return;
  }
  if (Resp.CacheHit != Q.ExpectHit) {
    R.fail(Where + (Q.ExpectHit ? "expected a cache hit, got a miss"
                                : "expected a miss, got a cache hit"));
    return;
  }
  std::string Bytes = support::writeJson(Resp.Artifact);
  switch (Q.K) {
  case Request::Exact:
    if (Q.ExpectHit) {
      if (Stored[Q.App] != Bytes)
        R.fail(Where + "cached artifact differs from the one stored");
      break;
    }
    Stored[Q.App] = Bytes;
    // The server bounds its trace buffer, so its artifacts carry
    // backpressure counts the unbounded bench/baselines do not: exact
    // artifacts are held to the first pass's instead.
    if (!FirstPass.count(Q.App))
      FirstPass[Q.App] = deterministicBytes(Resp.Artifact);
    else if (FirstPass[Q.App] != deterministicBytes(Resp.Artifact))
      R.fail(Where + "deterministic sections changed between passes");
    break;
  case Request::Sampled: {
    const support::JsonValue *Ws = Resp.Artifact.find("workloads");
    if (!Ws || !Ws->isArray() || Ws->size() != 1 ||
        !Ws->at(0).find("sampling"))
      R.fail(Where + "artifact has no sampling section");
    break;
  }
  case Request::Filtered:
  case Request::Demo:
    break;
  }
}

class ServicePass {
public:
  explicit ServicePass(const RunArgs &A) : A(A) {}

  /// Serves the stream of pass \p Pass from a fresh server and cache;
  /// the server's start and stop are outside the pass wall time.
  PassOutcome run(unsigned Pass, Tracer &T, int &NextJob, Latencies &L,
                  Report &R) {
    std::vector<Request> Stream = makeStream(A.Seed, Pass);
    std::string Dir = A.WorkDir + "/pass" + std::to_string(Pass);
    server::ServerOptions O;
    O.SocketPath = Dir + ".sock";
    O.CacheDir = Dir;
    O.Workers = 1;
    server::Server Srv(O);
    std::string Error;
    PassOutcome P;
    if (!Srv.start(Error)) {
      R.attempt();
      R.fail("server start: " + Error);
      return P;
    }
    // Each response is checked as it arrives and then dropped, so the
    // client holds no more than one; the checks stay out of the wall.
    std::map<std::string, std::string> Stored;
    double CheckMs = 0;
    Clock::time_point Start = Clock::now();
    for (const Request &Q : Stream) {
      Clock::time_point CheckStart;
      {
        server::SubmitResult Res;
        Clock::time_point Sent = Clock::now();
        {
          ScopedSpan Sp(T, std::string("request ") + kindName(Q.K), "server",
                        NextJob++);
          Res = server::submitWithRetry(O.SocketPath, Q.Json);
        }
        double Ms = msSince(Sent);
        CheckStart = Clock::now();
        P.JobMs.push_back(Ms);
        R.attempt();
        checkResponse(Q, Res, Stored, FirstPass, R);
        if (Q.K == Request::Demo) {
          ++P.Errors;
        } else if (Res.TransportOk && Res.Response.CacheHit) {
          ++P.Hits;
          L.Hit.push_back(Ms);
        } else {
          ++P.Misses;
          L.Miss.push_back(Ms);
        }
      }
      CheckMs += msSince(CheckStart);
    }
    P.WallMs = msSince(Start) - CheckMs;
    Srv.stop();
    fs::remove_all(Dir);
    return P;
  }

private:
  const RunArgs &A;
  /// Deterministic bytes of each app's first exact artifact.
  std::map<std::string, std::string> FirstPass;
};

std::string passCounters(const PassOutcome &P) {
  return "hits=" + std::to_string(P.Hits) +
         " misses=" + std::to_string(P.Misses) +
         " fault_demos=" + std::to_string(P.Errors);
}

} // namespace

bool perfbench::setUpServiceMixed(const RunArgs &A, Setup &S,
                                  std::string &Error) {
  if (!loadSetup(streamAppNames(), S, Error))
    return false;
  std::string Dir = A.WorkDir + "/setup";
  server::ServerOptions O;
  O.SocketPath = Dir + ".sock";
  O.CacheDir = Dir;
  O.Workers = 1;
  S.Server = std::make_unique<server::Server>(O);
  return S.Server->start(Error);
}

void perfbench::runServiceMixed(const RunArgs &A, const Setup &S,
                                double SetupS, Report &R) {
  ServicePass Service(A);
  Latencies L;
  if (!A.Trace) {
    Tracer Off(false);
    int NextJob = 0;
    PassOutcome First;
    PassStats Stats = runPasses(A.Seconds, [&](unsigned Pass,
                                               std::vector<double> &JobMs) {
      PassOutcome P = Service.run(Pass, Off, NextJob, L, R);
      JobMs = P.JobMs;
      if (Pass == 0) {
        First = P;
      } else {
        R.attempt();
        if (passCounters(P) != passCounters(First))
          R.fail("pass counters changed: " + passCounters(First) +
                 " then " + passCounters(P));
      }
      return P.WallMs;
    });
    checkRepeatedCounters(A, "service-mixed", passCounters(First), R);
    R.note(formatString("hit_p50_ms %.4f  hit_p90_ms %.4f  (%zu hits)",
                        quantile(L.Hit, 0.5), quantile(L.Hit, 0.9),
                        L.Hit.size()));
    R.note(formatString("miss_p50_ms %.4f  (%zu misses)",
                        quantile(L.Miss, 0.5), L.Miss.size()));
    reportEndToEnd(R, SetupS, Stats);
    return;
  }

  TracedRun TR;
  TR.PassHasCache = true;
  bracketTracedPass(TR, [&](bool Traced) {
    PassOutcome P = Service.run(0, TR.T, TR.NextJob, L, R);
    if (Traced) {
      TR.CacheHits = P.Hits;
      TR.CacheMisses = P.Misses;
    }
    return P.WallMs;
  });
  // The server runs the layers out of the client's sight: they are timed
  // on the same apps' profiles, called directly.
  probePool(S, TR, R);
  probeProfiles(S, S.Apps, A, TR, R);
  reportPerLayer(A, TR, R);
}
