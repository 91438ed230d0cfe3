//===- perfbench/measure.cpp - Measured runs for perfbench/run.py --------===//
///
/// One process per measured unit; perfbench/run.py starts it, enforces the
/// wall-clock deadline and memory cap, and turns its output into metrics.
/// Every mode prints one JSON object on its last stdout line.
///
///   perfbench_measure config
///       The default EngineConfig and ServiceConfig the runs use.
///
///   perfbench_measure vm --program NAME --scale N [--mode MODE] [--spans F]
///       Builds one workload with 3 workers and runs it once in the MiniJVM.
///       MODE is "detector" (default: a default-config GoldilocksDetector
///       checking every access), "traced" (the same, wrapped in
///       TimingDetector; F receives the sampled hook spans as a Chrome
///       trace) or "uninstrumented". Checks: no race, no uncaught
///       exception, result global equal to Workload::Expected where set.
///
///   perfbench_measure ingest --seed S --rates R1,R2,.. --sessions N1,N2,..
///                           --dir D [--traced T1,T2,..]
///       The open-loop shm ingest: per phase, a fresh DetectionService
///       behind an ShmServer, and 2 producer threads that run N sessions
///       due on a seeded schedule at rate R (one arrival per 1/R slot).
///       Each session publishes one trace through GoldClient and collects
///       its verdicts, which must equal the happens-before oracle's racy
///       variables. A phase with T = 1 turns pipeline tracing on, times
///       every publish, and writes its pipeline spans to
///       D/spans-<phase>.json; then every input is also replayed through
///       TimingDetector for the hook timings.
///
//===----------------------------------------------------------------------===//

#include "BarrierTrace.h"
#include "TimingDetector.h"

#include "bench/BenchJson.h"
#include "client/GoldClient.h"
#include "detectors/GoldilocksDetectors.h"
#include "event/RandomTrace.h"
#include "hb/HbOracle.h"
#include "service/Service.h"
#include "service/shm/ShmServer.h"
#include "support/Random.h"
#include "vm/Vm.h"
#include "workloads/Workload.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>
#include <vector>

using namespace gold;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

uint64_t nowNanos() { return TimingDetector::nowNanos(); }

double secondsSince(uint64_t Start) { return double(nowNanos() - Start) / 1e9; }

std::map<std::string, std::string> parseFlags(int Argc, char **Argv) {
  std::map<std::string, std::string> F;
  for (int I = 2; I + 1 < Argc; I += 2)
    F[Argv[I]] = Argv[I + 1];
  return F;
}

std::string flag(const std::map<std::string, std::string> &F, const char *K,
                 const char *Default) {
  auto It = F.find(K);
  return It == F.end() ? Default : It->second;
}

std::vector<uint64_t> parseList(const std::string &S) {
  std::vector<uint64_t> Out;
  std::stringstream SS(S);
  std::string Item;
  while (std::getline(SS, Item, ','))
    if (!Item.empty())
      Out.push_back(std::strtoull(Item.c_str(), nullptr, 10));
  return Out;
}

/// Exact order statistic of a sample (nearest rank), 0 when empty.
uint64_t quantile(std::vector<uint64_t> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * double(V.size())));
  return V[Rank ? Rank - 1 : 0];
}

void emitArray(JsonWriter &J, const char *Key, const std::vector<uint64_t> &V) {
  J.key(Key);
  J.beginArray();
  for (uint64_t X : V)
    J.value(X);
  J.endArray();
}

//===----------------------------------------------------------------------===//
// config
//===----------------------------------------------------------------------===//

int runConfig() {
  JsonWriter J;
  J.beginObject();
  J.kv("hw_threads", std::thread::hardware_concurrency());
  jsonEngineConfig(J, "engine_config", EngineConfig());
  ServiceConfig SC;
  J.key("service_config");
  J.beginObject();
  J.kv("shards", SC.Shards);
  J.kv("ring_capacity", static_cast<uint64_t>(SC.RingCapacity));
  J.kv("max_sessions", static_cast<uint64_t>(SC.MaxSessions));
  J.kv("pump_batch", SC.PumpBatch);
  jsonEngineConfig(J, "engine", SC.Engine);
  J.endObject();
  J.endObject();
  std::printf("%s\n", J.str().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// vm
//===----------------------------------------------------------------------===//

constexpr unsigned VmWorkers = 3;

bool makeProgram(const std::string &Name, unsigned Scale, Workload &Out) {
  WorkloadScale S{Scale};
  if (Name == "colt")
    Out = makeColt(VmWorkers, S);
  else if (Name == "hedc")
    Out = makeHedc(VmWorkers, S);
  else if (Name == "philo")
    Out = makePhilo(VmWorkers, S);
  else if (Name == "tsp")
    Out = makeTsp(VmWorkers, S);
  else if (Name == "multiset")
    // Scale counts transactions per worker, over a 16-slot multiset.
    Out = makeMultiset(VmWorkers, Scale, 16);
  else if (Name == "lufact")
    Out = makeLufact(VmWorkers, S);
  else if (Name == "moldyn")
    Out = makeMoldyn(VmWorkers, S);
  else if (Name == "raytracer")
    Out = makeRaytracer(VmWorkers, S);
  else if (Name == "sor")
    Out = makeSor(VmWorkers, S);
  else if (Name == "sor2")
    Out = makeSor2(VmWorkers, S);
  else
    return false;
  return true;
}

/// The "hooks" block of a traced run: exact calls and nanoseconds per hook
/// class, and the exact p50/p99 of its sampled spans.
void emitHooks(JsonWriter &J, const HookReport &R) {
  J.key("hooks");
  J.beginObject();
  J.kv("lifetime_ns", R.ThreadLifetimeNanos);
  for (size_t K = 0; K != NumHooks; ++K) {
    std::vector<uint64_t> Durs;
    for (const HookSpan &S : R.Spans)
      if (static_cast<size_t>(S.Kind) == K)
        Durs.push_back(S.DurNanos);
    J.key(hookName(static_cast<Hook>(K)));
    J.beginObject();
    J.kv("calls", R.Totals[K].Calls);
    J.kv("ns", R.Totals[K].Nanos);
    J.kv("spans", static_cast<uint64_t>(Durs.size()));
    J.kv("ns_p50", quantile(Durs, 0.50));
    J.kv("ns_p99", quantile(Durs, 0.99));
    J.endObject();
  }
  J.endObject();
}

/// Writes the run span and its sampled hook spans as a Chrome trace.
void writeHookSpans(const std::string &Path, const HookReport &R,
                    uint64_t RunStart, uint64_t RunNanos) {
  TraceEventSink Sink(R.Spans.size() + 1);
  Sink.span("program.run", "vm", 0, RunStart, RunNanos);
  for (const HookSpan &S : R.Spans)
    Sink.span(hookName(S.Kind), "hook", S.Thread + 1, S.StartNanos,
              S.DurNanos);
  if (!Sink.writeFile(Path))
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
}

int runVm(const std::map<std::string, std::string> &F) {
  const std::string Name = flag(F, "--program", "");
  const unsigned Scale =
      static_cast<unsigned>(std::strtoul(flag(F, "--scale", "1").c_str(),
                                         nullptr, 10));
  const std::string Mode = flag(F, "--mode", "detector");
  const std::string SpansPath = flag(F, "--spans", "");
  if (Mode != "detector" && Mode != "traced" && Mode != "uninstrumented") {
    std::fprintf(stderr, "perfbench: unknown --mode %s\n", Mode.c_str());
    return 2;
  }

  // Set-up: program building plus detector and VM construction.
  uint64_t SetupStart = nowNanos();
  Workload W;
  if (!makeProgram(Name, Scale, W)) {
    std::fprintf(stderr, "perfbench: unknown --program %s\n", Name.c_str());
    return 2;
  }
  std::unique_ptr<GoldilocksDetector> D;
  std::unique_ptr<TimingDetector> Timed;
  VmConfig Cfg;
  Cfg.HonorCheckFlags = false; // check every access (Table 1's NoStatic)
  if (Mode != "uninstrumented") {
    D = std::make_unique<GoldilocksDetector>();
    Cfg.Detector = D.get();
    if (Mode == "traced") {
      Timed = std::make_unique<TimingDetector>(*D);
      Cfg.Detector = Timed.get();
    }
  }
  Vm V(W.Prog, Cfg);
  double SetupS = secondsSince(SetupStart);

  uint64_t RunStart = nowNanos();
  int64_t Ret = V.run();
  uint64_t RunNanos = nowNanos() - RunStart;

  VmStats VS = V.stats();
  int64_t Result = static_cast<int64_t>(V.global(W.ResultGlobal));
  std::string Failure;
  if (Ret != 0)
    Failure = "main returned " + std::to_string(Ret);
  else if (!V.uncaught().empty())
    Failure = std::to_string(V.uncaught().size()) + " uncaught exception(s)";
  else if (!V.raceLog().empty())
    Failure = "race reported on a race-free program: " + V.raceLog()[0].str();
  else if (W.HasExpected && Result != W.Expected)
    Failure = "result " + std::to_string(Result) + " != expected " +
              std::to_string(W.Expected);

  JsonWriter J;
  J.beginObject();
  J.kv("program", Name);
  J.kv("mode", Mode);
  J.kv("ok", Failure.empty());
  J.kv("failure", Failure);
  J.kv("setup_s", SetupS);
  J.kv("run_ns", RunNanos);
  J.key("vm");
  J.beginObject();
  J.kv("instructions", VS.Instructions);
  J.kv("data_accesses", VS.DataAccesses);
  J.kv("checked_accesses", VS.CheckedAccesses);
  J.kv("volatile_accesses", VS.VolatileAccesses);
  J.kv("monitor_ops", VS.MonitorOps);
  J.kv("txn_commits", VS.TxnCommits);
  J.kv("txn_conflict_retries", VS.TxnConflictRetries);
  J.kv("races", static_cast<uint64_t>(V.raceLog().size()));
  J.endObject();
  if (D) {
    jsonEngineStats(J, "engine", D->engine().stats());
    J.kv("list_len_end", static_cast<uint64_t>(D->engine().eventListLength()));
  }
  if (Timed) {
    HookReport R = Timed->report();
    emitHooks(J, R);
    if (!SpansPath.empty())
      writeHookSpans(SpansPath, R, RunStart, RunNanos);
  }
  J.endObject();
  std::printf("%s\n", J.str().c_str());
  return 0;
}

//===----------------------------------------------------------------------===//
// ingest
//===----------------------------------------------------------------------===//

constexpr unsigned Producers = 2;
/// Distinct session inputs per seed: enough that the mix of trace kinds and
/// spin counts varies little from seed to seed.
constexpr unsigned InputsPerSeed = 512;

/// One generated session input: a trace and the oracle's racy variables.
struct SessionInput {
  Trace T;
  std::set<std::string> Racy;
  bool Barrier = false;
};

/// The seeded trace mix: RandomTrace traces (locks, volatiles, commits,
/// real races) and barrier-idiom traces with seeded spin counts.
std::vector<SessionInput> makeInputs(uint64_t Seed, unsigned Count) {
  std::vector<SessionInput> In(Count);
  Random Rng(Seed * 0x9E3779B97F4A7C15ull + 17);
  for (unsigned I = 0; I != Count; ++I) {
    SessionInput &S = In[I];
    S.Barrier = I % 2 == 1;
    if (S.Barrier) {
      BarrierTraceParams P;
      P.Seed = Rng.next();
      P.Workers = 3;
      P.Phases = 8;
      P.MinSpins = 1;
      P.MaxSpins = static_cast<unsigned>(Rng.nextInRange(1, 40));
      S.T = generateBarrierTrace(P);
    } else {
      RandomTraceParams P;
      P.Seed = Rng.next();
      P.NumThreads = 3;
      P.StepsPerThread = 60;
      S.T = generateRandomTrace(P);
    }
    RaceOracle O(S.T);
    for (const VarId &V : O.racyVars())
      S.Racy.insert(V.str());
  }
  return In;
}

struct SessionResult {
  bool Barrier = false;    ///< the session's trace is a barrier-idiom one
  uint64_t DueNanos = 0;   ///< scheduled start, relative to the phase start
  uint64_t StartNanos = 0; ///< actual start, same origin
  uint64_t DoneNanos = 0;  ///< verdicts in hand, same origin
  uint64_t CloseNanos = 0; ///< closeAndCollect duration
  bool Ok = false;
  bool Wrong = false; ///< verdicts differ from the oracle
  std::string Failure;
  uint64_t Backpressures = 0;
  uint64_t Shed = 0;
};

struct PhaseResult {
  uint64_t Rate = 0;
  uint64_t ElapsedNanos = 0; ///< phase start to last session done
  std::vector<SessionResult> Sessions;
  std::vector<uint64_t> PublishNanos; ///< every publish(), traced runs only
  shm::ShmStats Shm;
  std::vector<EngineStats> Engines; ///< one per shard
  uint64_t ListLenEnd = 0;
  uint64_t PeakRssBytes = 0; ///< sampled while the phase's sessions ran
  uint64_t CpuNanos = 0;     ///< process CPU time while they ran
};

/// User plus system CPU time of every thread of this process.
uint64_t cpuNanos() {
  rusage U;
  ::getrusage(RUSAGE_SELF, &U);
  auto Ns = [](const timeval &T) {
    return uint64_t(T.tv_sec) * 1000000000ull + uint64_t(T.tv_usec) * 1000;
  };
  return Ns(U.ru_utime) + Ns(U.ru_stime);
}

/// Resident set size of this process, 0 if /proc is unreadable.
uint64_t rssBytes() {
  FILE *F = std::fopen("/proc/self/statm", "r");
  if (!F)
    return 0;
  unsigned long long Size = 0, Resident = 0;
  int N = std::fscanf(F, "%llu %llu", &Size, &Resident);
  std::fclose(F);
  return N == 2 ? Resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE))
                : 0;
}

PhaseResult runPhase(const std::vector<SessionInput> &In, uint64_t Seed,
                     unsigned Phase, uint64_t Rate, unsigned Count,
                     const std::string &Dir, bool Traced) {
  PhaseResult R;
  R.Rate = Rate;

  // Seeded schedule: session I is due at a uniformly drawn point of the
  // I-th slot of length 1 / Rate, and gets a seeded input. One arrival per
  // slot keeps the offered rate exact without Poisson bursts, whose
  // queueing would make the tail depend on the seed more than on the
  // system.
  Random Rng(Seed * 1000003ull + Phase);
  std::vector<uint64_t> Due(Count);
  std::vector<unsigned> Pick(Count);
  const double Slot = 1e9 / double(Rate);
  for (unsigned I = 0; I != Count; ++I) {
    double U = double(Rng.nextBelow(1u << 30)) / double(1u << 30);
    Due[I] = static_cast<uint64_t>((double(I) + U) * Slot);
    Pick[I] = static_cast<unsigned>(Rng.nextBelow(In.size()));
  }

  // Hand the heap earlier phases freed back to the system, so this phase's
  // sampled peak RSS is its own.
  ::malloc_trim(0);
  ServiceConfig SC;
  // One session slot per session of the phase (the default 512 would
  // refuse the rest: slots are recycled only by reincarnating every shard).
  SC.MaxSessions = std::max<size_t>(SC.MaxSessions, Count + 16);
  if (Traced) {
    SC.Trace.Enabled = true;
    SC.Trace.SampleRatePpm = 20000;
    SC.Trace.SpanCapacity = 1u << 18;
  }
  DetectionService Svc(SC);
  shm::ShmConfig ShC;
  ShC.Path = Dir + "/ingest-" + std::to_string(::getpid()) + "-" +
             std::to_string(Phase) + ".ring";
  shm::ShmServer Shm(Svc, ShC);
  std::string Err;
  if (!Shm.start(Err)) {
    std::fprintf(stderr, "perfbench: shm start: %s\n", Err.c_str());
    std::exit(1);
  }
  std::atomic<bool> Stop{false};
  // The serving thread runs as goldilocks-serve's does: it polls while a
  // round found work and otherwise parks on the doorbell for up to 50 ms,
  // so sessions pay the futex wake-ups a deployed service costs them.
  std::thread Loop([&] {
    size_t Busy = 0;
    while (!Stop.load(std::memory_order_relaxed))
      Busy = Shm.pollOnce(Busy ? 0 : 50);
  });

  R.Sessions.resize(Count);
  std::vector<std::vector<uint64_t>> Publish(Producers);
  std::atomic<unsigned> Next{0};
  std::atomic<unsigned> ProducersDone{0};
  const uint64_t Cpu0 = cpuNanos();
  const Clock::time_point Origin = Clock::now();
  auto Since = [&] {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             Origin)
            .count());
  };
  auto Producer = [&](unsigned P) {
    for (unsigned I; (I = Next.fetch_add(1)) < Count;) {
      SessionResult &S = R.Sessions[I];
      const SessionInput &Input = In[Pick[I]];
      S.DueNanos = Due[I];
      S.Barrier = Input.Barrier;
      std::this_thread::sleep_until(Origin +
                                    std::chrono::nanoseconds(Due[I]));
      S.StartNanos = Since();
      client::GoldClientConfig CC;
      CC.ClientId = I + 1;
      CC.ShmPath = ShC.Path;
      CC.Port = 0;
      CC.OpTimeoutNanos = 10ull * 1000000000;
      if (Traced) {
        CC.TraceFrames = true;
        CC.TraceSeed = SC.Trace.Seed;
        CC.TraceSampleRatePpm = SC.Trace.SampleRatePpm;
      }
      client::GoldClient GC(CC);
      std::vector<std::string> Vars;
      std::string ConnErr;
      if (!GC.connect(ConnErr)) {
        S.Failure = "connect: " + ConnErr;
      } else {
        for (const Action &A : Input.T.Actions) {
          const CommitSets *CS = A.Kind == ActionKind::Commit
                                     ? &Input.T.commitSets(A)
                                     : nullptr;
          uint64_t P0 = Traced ? nowNanos() : 0;
          bool Ok = GC.publish(A, CS);
          if (Traced)
            Publish[P].push_back(nowNanos() - P0);
          if (!Ok)
            break; // shed or dead: closeAndCollect says which
        }
        uint64_t C0 = nowNanos();
        std::string CloseErr;
        bool Closed = GC.closeAndCollect(Vars, CloseErr);
        S.CloseNanos = nowNanos() - C0;
        if (!Closed)
          S.Failure = "close: " + CloseErr;
      }
      S.DoneNanos = Since();
      S.Backpressures = GC.stats().Backpressures;
      S.Shed = GC.stats().Shed;
      if (S.Failure.empty() && S.Shed)
        S.Failure = std::to_string(S.Shed) + " action(s) shed";
      if (S.Failure.empty() &&
          std::set<std::string>(Vars.begin(), Vars.end()) != Input.Racy) {
        S.Failure = "verdicts differ from the happens-before oracle";
        S.Wrong = true;
      }
      S.Ok = S.Failure.empty();
    }
  };
  std::vector<std::thread> Threads;
  for (unsigned P = 0; P != Producers; ++P)
    Threads.emplace_back([&, P] {
      Producer(P);
      ProducersDone.fetch_add(1);
    });
  // The main thread samples RSS while the sessions run: the process peak
  // would also carry whatever the allocator kept from earlier phases.
  while (ProducersDone.load() != Producers) {
    R.PeakRssBytes = std::max(R.PeakRssBytes, rssBytes());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread &Th : Threads)
    Th.join();
  R.PeakRssBytes = std::max(R.PeakRssBytes, rssBytes());
  R.CpuNanos = cpuNanos() - Cpu0;
  for (const SessionResult &S : R.Sessions)
    R.ElapsedNanos = std::max(R.ElapsedNanos, S.DoneNanos);
  Stop.store(true);
  Loop.join();

  for (auto &V : Publish)
    R.PublishNanos.insert(R.PublishNanos.end(), V.begin(), V.end());
  for (unsigned S = 0; S != Svc.shards(); ++S) {
    R.Engines.push_back(Svc.shardEngine(S).stats());
    R.ListLenEnd += Svc.shardEngine(S).eventListLength();
  }
  R.Shm = Shm.stats();
  if (Traced) {
    if (TraceEventSink *Sink = Svc.spanSink()) {
      std::string Path = Dir + "/spans-" + std::to_string(Phase) + ".json";
      if (!Sink->writeFile(Path))
        std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    }
  }
  Shm.drainAndStop();
  Svc.shutdown();
  ::unlink(ShC.Path.c_str());
  return R;
}

int runIngest(const std::map<std::string, std::string> &F) {
  const uint64_t Seed = std::strtoull(flag(F, "--seed", "1").c_str(),
                                      nullptr, 10);
  const std::vector<uint64_t> Rates = parseList(flag(F, "--rates", ""));
  const std::vector<uint64_t> Counts = parseList(flag(F, "--sessions", ""));
  const std::string Dir = flag(F, "--dir", ".");
  std::vector<uint64_t> TracedPhases = parseList(flag(F, "--traced", ""));
  TracedPhases.resize(Rates.size(), 0);
  const bool Traced = std::count(TracedPhases.begin(), TracedPhases.end(), 1u);
  if (Rates.empty() || Rates.size() != Counts.size() ||
      std::count(Rates.begin(), Rates.end(), 0u)) {
    std::fprintf(stderr, "perfbench: --rates and --sessions must be equally "
                         "long lists of positive numbers\n");
    return 2;
  }

  // Set-up: trace and oracle generation plus a service start-up and
  // tear-down. It is repeated twice before every phase, so that its median
  // spans the whole run: single-threaded work on a shared host runs at
  // speeds that differ by a third from one second to the next.
  std::vector<double> SetupS;
  std::vector<SessionInput> In;
  auto SetUp = [&] {
    uint64_t S0 = nowNanos();
    In = makeInputs(Seed, InputsPerSeed);
    DetectionService Svc;
    shm::ShmConfig ShC;
    ShC.Path = Dir + "/setup-" + std::to_string(::getpid()) + ".ring";
    shm::ShmServer Shm(Svc, ShC);
    std::string Err;
    if (!Shm.start(Err)) {
      std::fprintf(stderr, "perfbench: shm start: %s\n", Err.c_str());
      std::exit(1);
    }
    SetupS.push_back(secondsSince(S0));
    Shm.drainAndStop();
    Svc.shutdown();
    ::unlink(ShC.Path.c_str());
  };
  SetUp();

  JsonWriter J;
  J.beginObject();
  if (Traced) {
    // The hook boundary on the same inputs: each trace replayed through a
    // default-config detector wrapped in the timing decorator.
    J.key("replay_hooks");
    J.beginArray();
    for (const SessionInput &S : In) {
      GoldilocksDetector D;
      TimingDetector Timed(D);
      Timed.runTrace(S.T);
      J.beginObject();
      emitHooks(J, Timed.report());
      J.endObject();
    }
    J.endArray();
  }
  J.key("phases");
  J.beginArray();
  for (size_t P = 0; P != Rates.size(); ++P) {
    SetUp();
    SetUp();
    PhaseResult R = runPhase(In, Seed, static_cast<unsigned>(P), Rates[P],
                             static_cast<unsigned>(Counts[P]), Dir,
                             TracedPhases[P] != 0);
    J.beginObject();
    J.kv("index", static_cast<uint64_t>(P));
    J.kv("rate", R.Rate);
    J.kv("elapsed_ns", R.ElapsedNanos);
    J.kv("peak_rss_bytes", R.PeakRssBytes);
    J.kv("cpu_ns", R.CpuNanos);
    std::vector<uint64_t> Kind, Due, Start, Done, Close;
    uint64_t Failed = 0, Wrong = 0, Backpressures = 0, Shed = 0;
    std::string FirstFailure;
    for (const SessionResult &S : R.Sessions) {
      Kind.push_back(S.Barrier);
      Due.push_back(S.DueNanos);
      Start.push_back(S.StartNanos);
      Done.push_back(S.DoneNanos);
      Close.push_back(S.CloseNanos);
      Failed += !S.Ok;
      Wrong += S.Wrong;
      Backpressures += S.Backpressures;
      Shed += S.Shed;
      if (!S.Ok && FirstFailure.empty())
        FirstFailure = S.Failure;
    }
    emitArray(J, "kind", Kind);
    emitArray(J, "due_ns", Due);
    emitArray(J, "start_ns", Start);
    emitArray(J, "done_ns", Done);
    emitArray(J, "close_ns", Close);
    J.kv("failed", Failed);
    J.kv("wrong", Wrong);
    J.kv("first_failure", FirstFailure);
    J.kv("backpressures", Backpressures);
    J.kv("shed", Shed);
    J.kv("traced", TracedPhases[P] != 0);
    if (TracedPhases[P]) {
      J.kv("publish_ns_p50", quantile(R.PublishNanos, 0.50));
      J.kv("publish_ns_p99", quantile(R.PublishNanos, 0.99));
    }
    J.key("shm");
    J.beginObject();
    J.kv("frames_in", R.Shm.FramesIn);
    J.kv("slots_in", R.Shm.SlotsIn);
    J.kv("wakeups", R.Shm.Wakeups);
    J.kv("backpressure_writes", R.Shm.BackpressureWrites);
    J.kv("verdicts_truncated", R.Shm.VerdictsTruncated);
    J.endObject();
    J.key("shards");
    J.beginArray();
    for (const EngineStats &E : R.Engines) {
      J.beginObject();
      jsonEngineStats(J, "engine", E);
      J.endObject();
    }
    J.endArray();
    J.kv("list_len_end", R.ListLenEnd);
    J.endObject();
  }
  J.endArray();
  J.key("setup_s");
  J.beginArray();
  for (double S : SetupS)
    J.value(S);
  J.endArray();
  J.endObject();
  std::printf("%s\n", J.str().c_str());
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Mode = Argc > 1 ? Argv[1] : "";
  auto F = parseFlags(Argc, Argv);
  if (Mode == "config")
    return runConfig();
  if (Mode == "vm")
    return runVm(F);
  if (Mode == "ingest")
    return runIngest(F);
  std::fprintf(stderr, "usage: perfbench_measure config|vm|ingest [flags]\n");
  return 2;
}
