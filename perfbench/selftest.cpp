//===- perfbench/selftest.cpp - Checks of the benchmark's own parts -------===//
///
/// Checks the two pieces of the benchmark that sit between it and the code
/// it measures:
///
///  - TimingDetector must forward every virtual of RaceDetector, and be
///    invisible to the engine: replaying a seeded RandomTrace with and
///    without it gives the same verdicts and the same EngineStats, through
///    runTrace and through the two-phase commit and thread-exit hooks the
///    MiniJVM uses.
///  - generateBarrierTrace must produce well-formed traces that the
///    happens-before oracle finds race-free, the same trace for the same
///    seed, and appended cells that grow linearly with the spin count.
///
/// Exits 0 when every check passes and 1 otherwise, naming each failure.
///
//===----------------------------------------------------------------------===//

#include "BarrierTrace.h"
#include "TimingDetector.h"

#include "bench/BenchJson.h"
#include "detectors/GoldilocksDetectors.h"
#include "event/RandomTrace.h"
#include "hb/HbOracle.h"

#include <cstdio>
#include <map>
#include <set>
#include <string>

using namespace gold;
using namespace perfbench;

namespace {

int Failures = 0;

void check(bool Ok, const std::string &What) {
  if (!Ok) {
    ++Failures;
    std::fprintf(stderr, "FAIL: %s\n", What.c_str());
  }
}

std::string statsJson(const EngineStats &S) {
  JsonWriter J;
  J.beginObject();
  jsonEngineStats(J, "stats", S);
  J.endObject();
  return J.str();
}

std::string verdicts(const std::vector<RaceReport> &Rs) {
  std::string Out;
  for (const RaceReport &R : Rs)
    Out += R.str() + " @" + std::to_string(R.Seq) + "/" +
           std::to_string(R.PriorSeq) + "\n";
  return Out;
}

/// The MiniJVM's hook sequence for a trace: commits go through the
/// two-phase interface, and each thread's exit follows its termination.
std::vector<RaceReport> replayAsVm(RaceDetector &D, const Trace &T) {
  std::vector<RaceReport> Out;
  for (const Action &A : T.Actions) {
    switch (A.Kind) {
    case ActionKind::Commit: {
      D.onCommitPoint(A.Thread, T.commitSets(A));
      auto Rs = D.onCommitFinish(A.Thread, T.commitSets(A));
      Out.insert(Out.end(), Rs.begin(), Rs.end());
      break;
    }
    case ActionKind::Terminate:
      D.onTerminate(A.Thread);
      D.onThreadExit(A.Thread);
      break;
    default: {
      Trace One;
      One.Actions.push_back(A);
      auto Rs = D.runTrace(One);
      Out.insert(Out.end(), Rs.begin(), Rs.end());
    }
    }
  }
  return Out;
}

void testDecoratorIsInvisible() {
  for (uint64_t Seed = 1; Seed <= 24; ++Seed) {
    RandomTraceParams P;
    P.Seed = Seed;
    P.StepsPerThread = 60;
    Trace T = generateRandomTrace(P);
    std::string Tag = "seed " + std::to_string(Seed);

    for (int Vm = 0; Vm != 2; ++Vm) {
      GoldilocksDetector Plain;
      GoldilocksDetector Inner;
      TimingDetector Timed(Inner, 1);
      auto Want = Vm ? replayAsVm(Plain, T) : Plain.runTrace(T);
      auto Got = Vm ? replayAsVm(Timed, T) : Timed.runTrace(T);
      std::string Mode = Vm ? " (two-phase hooks)" : " (runTrace)";
      check(verdicts(Want) == verdicts(Got), Tag + Mode + ": verdicts differ");
      check(statsJson(Plain.engine().stats()) ==
                statsJson(Inner.engine().stats()),
            Tag + Mode + ": EngineStats differ");
      check(Timed.health().has_value() && Timed.telemetry().has_value(),
            Tag + Mode + ": health/telemetry not forwarded");

      HookReport R = Timed.report();
      uint64_t Calls = 0;
      for (const HookTotals &H : R.Totals)
        Calls += H.Calls;
      check(Calls >= T.Actions.size(), Tag + Mode + ": hook calls missing");
      uint64_t DataActions = 0;
      for (const Action &A : T.Actions)
        DataActions +=
            A.Kind == ActionKind::Read || A.Kind == ActionKind::Write;
      check(R.Totals[static_cast<size_t>(Hook::Access)].Calls == DataActions,
            Tag + Mode + ": access hook count");
      check(R.Spans.size() == Calls, Tag + Mode + ": stride-1 spans missing");
    }
  }
}

/// Records which virtuals reached it, so a decorator override that is
/// missing (and silently falls back to the base class default) shows.
class CallRecorder final : public RaceDetector {
public:
  mutable std::set<std::string> Calls;

  std::optional<RaceReport> onRead(ThreadId, VarId) override {
    return note("onRead"), std::nullopt;
  }
  std::optional<RaceReport> onWrite(ThreadId, VarId) override {
    return note("onWrite"), std::nullopt;
  }
  void onAlloc(ThreadId, ObjectId, uint32_t) override { note("onAlloc"); }
  void onAcquire(ThreadId, ObjectId) override { note("onAcquire"); }
  void onRelease(ThreadId, ObjectId) override { note("onRelease"); }
  void onVolatileRead(ThreadId, VarId) override { note("onVolatileRead"); }
  void onVolatileWrite(ThreadId, VarId) override { note("onVolatileWrite"); }
  void onFork(ThreadId, ThreadId) override { note("onFork"); }
  void onJoin(ThreadId, ThreadId) override { note("onJoin"); }
  void onTerminate(ThreadId) override { note("onTerminate"); }
  void onThreadExit(ThreadId) override { note("onThreadExit"); }
  std::vector<RaceReport> onCommit(ThreadId, const CommitSets &) override {
    return note("onCommit"), std::vector<RaceReport>();
  }
  void onCommitPoint(ThreadId, const CommitSets &) override {
    note("onCommitPoint");
  }
  std::vector<RaceReport> onCommitFinish(ThreadId,
                                         const CommitSets &) override {
    return note("onCommitFinish"), std::vector<RaceReport>();
  }
  const char *name() const override { return "recorder"; }
  std::optional<EngineHealth> health() const override {
    return note("health"), std::nullopt;
  }
  std::optional<TelemetrySnapshot> telemetry() const override {
    return note("telemetry"), std::nullopt;
  }

private:
  void note(const char *What) const { Calls.insert(What); }
};

void testDecoratorForwardsEveryVirtual() {
  CallRecorder Inner;
  TimingDetector D(Inner);
  CommitSets CS;
  D.onRead(1, VarId{1, 0});
  D.onWrite(1, VarId{1, 0});
  D.onAlloc(1, 1, 1);
  D.onAcquire(1, 1);
  D.onRelease(1, 1);
  D.onVolatileRead(1, VarId{1, 1000});
  D.onVolatileWrite(1, VarId{1, 1000});
  D.onFork(0, 1);
  D.onJoin(0, 1);
  D.onTerminate(1);
  D.onThreadExit(1);
  D.onCommit(1, CS);
  D.onCommitPoint(1, CS);
  D.onCommitFinish(1, CS);
  (void)D.health();
  (void)D.telemetry();
  for (const char *V :
       {"onRead", "onWrite", "onAlloc", "onAcquire", "onRelease",
        "onVolatileRead", "onVolatileWrite", "onFork", "onJoin",
        "onTerminate", "onThreadExit", "onCommit", "onCommitPoint",
        "onCommitFinish", "health", "telemetry"})
    check(Inner.Calls.count(V) == 1,
          std::string("TimingDetector does not forward ") + V);
  check(std::string(D.name()) == "recorder", "name() not forwarded");
}

/// Structural well-formedness: objects allocated before use, threads act
/// only between their fork and their termination, joins follow the joined
/// thread's termination, volatile and data fields kept apart.
bool wellFormed(const Trace &T, std::string &Why) {
  std::map<ObjectId, FieldId> Alloc;
  std::set<ThreadId> Forked{0}, Done;
  for (size_t I = 0; I != T.Actions.size(); ++I) {
    const Action &A = T.Actions[I];
    auto Fail = [&](const char *M) {
      Why = "action " + std::to_string(I) + " (" + A.str() + "): " + M;
      return false;
    };
    if (!Forked.count(A.Thread))
      return Fail("thread acts before its fork");
    if (Done.count(A.Thread))
      return Fail("thread acts after terminating");
    switch (A.Kind) {
    case ActionKind::Alloc:
      Alloc[A.Var.Object] = A.Var.Field;
      break;
    case ActionKind::Read:
    case ActionKind::Write:
      if (!Alloc.count(A.Var.Object) || A.Var.Field >= Alloc[A.Var.Object])
        return Fail("data field not allocated");
      break;
    case ActionKind::VolatileRead:
    case ActionKind::VolatileWrite:
      if (!Alloc.count(A.Var.Object) || A.Var.Field < BarrierFlagField0)
        return Fail("volatile field not allocated");
      break;
    case ActionKind::Fork:
      if (!Forked.insert(A.Target).second)
        return Fail("thread forked twice");
      break;
    case ActionKind::Join:
      if (!Done.count(A.Target))
        return Fail("join before the thread terminated");
      break;
    case ActionKind::Terminate:
      Done.insert(A.Thread);
      break;
    default:
      return Fail("unexpected action kind");
    }
  }
  return true;
}

uint64_t cellsAppended(const Trace &T) {
  GoldilocksDetector D;
  D.runTrace(T);
  return D.engine().stats().SyncEvents;
}

void testBarrierTraces() {
  for (uint64_t Seed = 1; Seed <= 16; ++Seed) {
    for (unsigned Spins : {1u, 3u, 20u}) {
      BarrierTraceParams P;
      P.Seed = Seed;
      P.Workers = 2 + static_cast<unsigned>(Seed % 3);
      P.Phases = 6;
      P.MinSpins = 1;
      P.MaxSpins = Spins;
      std::string Tag = "barrier seed " + std::to_string(Seed) + " spins " +
                        std::to_string(Spins);
      Trace T = generateBarrierTrace(P);
      std::string Why;
      check(wellFormed(T, Why), Tag + ": not well-formed: " + Why);
      RaceOracle O(T);
      check(O.races().empty(), Tag + ": oracle finds races");
      GoldilocksDetector D;
      check(D.runTrace(T).empty(), Tag + ": engine reports races");
      check(generateBarrierTrace(P).str() == T.str(),
            Tag + ": same seed gave another trace");
      BarrierTraceParams Q = P;
      Q.Seed = Seed + 1000;
      check(generateBarrierTrace(Q).str() != T.str(),
            Tag + ": another seed gave the same trace");
    }
  }

  // Fixed spin counts: cells appended are an affine function of spins.
  for (uint64_t Seed = 1; Seed <= 4; ++Seed) {
    uint64_t C[4];
    for (unsigned S = 1; S <= 4; ++S) {
      BarrierTraceParams P;
      P.Seed = Seed;
      P.Workers = 3;
      P.Phases = 10;
      P.MinSpins = P.MaxSpins = S;
      C[S - 1] = cellsAppended(generateBarrierTrace(P));
    }
    uint64_t Step = C[1] - C[0];
    check(Step > 0 && C[2] - C[1] == Step && C[3] - C[2] == Step,
          "barrier seed " + std::to_string(Seed) +
              ": cells appended not linear in spins");
  }
}

} // namespace

int main() {
  testDecoratorForwardsEveryVirtual();
  testDecoratorIsInvisible();
  testBarrierTraces();
  if (Failures) {
    std::fprintf(stderr, "perfbench selftest: %d failure(s)\n", Failures);
    return 1;
  }
  std::printf("perfbench selftest: ok\n");
  return 0;
}
