//===- tests/ConcurrencyTest.cpp - True multi-threaded engine tests -------===//
///
/// Differential testing of the lock-free engine under real concurrency,
/// built on the shared ticketed harness (tests/DifferentialHarness.h):
/// N OS threads hammer one GoldilocksEngine through the detector interface
/// with idiom mixes in the style of RandomTrace (private data, lock-shared
/// data, volatile publication, deliberate no-sync races, transactions).
/// The observed linearization is replayed post-hoc through the HB oracle
/// and the eager reference algorithm — the three verdict sets (racy
/// variables) must agree on every seeded run.
///
/// Named regressions: an ownership-transfer interleaving (lock handoff must
/// not race, real-time-only handoff must race) and a commit-anchor
/// interleaving (GC runs between commitPoint and finishCommit while other
/// threads append — anchor clamping must keep transactional verdicts exact).
///
//===----------------------------------------------------------------------===//

#include "DifferentialHarness.h"
#include "support/Failpoints.h"

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

using namespace gold;
using namespace gold::difftest;

namespace {

//===----------------------------------------------------------------------===//
// Seeded mixed-idiom fuzz runs (workload lives in the harness)
//===----------------------------------------------------------------------===//

TEST(ConcurrencyTest, MixedIdiomsMatchOracleAcrossSeeds) {
  for (unsigned Threads : {2u, 4u, 8u})
    for (uint64_t Seed : {1u, 2u, 3u})
      runMixedWorkload(Threads, Seed);
}

//===----------------------------------------------------------------------===//
// Named regression: ownership transfer
//===----------------------------------------------------------------------===//

// Thread 1 initializes a payload without holding any lock, then hands it to
// thread 2 through a lock-protected slot (the classic ownership-transfer
// idiom Goldilocks handles and pure lockset detectors like Eraser flag).
// A second payload is handed over with *real-time ordering only* (a raw
// atomic flag the detector never sees) — that one must race: real-time
// order without a synchronization action is not happens-before.
TEST(ConcurrencyTest, OwnershipTransferHandoff) {
  constexpr ObjectId XObj = 10;   // correctly transferred payload
  constexpr ObjectId YObj = 11;   // real-time-only "transfer" (races)
  constexpr ObjectId Lock = 12;
  constexpr ObjectId SlotObj = 13;

  Harness H((EngineConfig()));
  std::vector<Recorder> Recs(3);
  Recorder &Main = Recs[0];

  std::mutex M;
  bool SlotSet = false; // guarded by M
  std::atomic<bool> BrokenFlag{false};

  H.alloc(Main, 0, XObj, 1);
  H.alloc(Main, 0, YObj, 1);
  H.alloc(Main, 0, Lock, 1);
  H.alloc(Main, 0, SlotObj, 1);

  auto Producer = [&] {
    Recorder &R = Recs[1];
    H.write(R, 1, VarId{XObj, 0}); // init outside any lock
    {
      std::lock_guard<std::mutex> G(M);
      H.acq(R, 1, Lock);
      H.write(R, 1, VarId{SlotObj, 0}); // publish the handle
      SlotSet = true;
      H.rel(R, 1, Lock);
    }
    H.write(R, 1, VarId{YObj, 0});
    BrokenFlag.store(true, std::memory_order_release);
    H.terminate(R, 1);
  };

  auto Consumer = [&] {
    Recorder &R = Recs[2];
    bool Got = false;
    while (!Got) {
      {
        std::lock_guard<std::mutex> G(M);
        H.acq(R, 2, Lock);
        H.read(R, 2, VarId{SlotObj, 0});
        Got = SlotSet;
        H.rel(R, 2, Lock);
      }
      if (!Got)
        std::this_thread::yield();
    }
    // Ordered after the producer's init through the lock handoff chain.
    H.read(R, 2, VarId{XObj, 0});
    // Really-after but with no synchronization action in between: a race.
    while (!BrokenFlag.load(std::memory_order_acquire))
      std::this_thread::yield();
    H.read(R, 2, VarId{YObj, 0});
    H.terminate(R, 2);
  };

  H.fork(Main, 0, 1);
  std::thread T1(Producer);
  H.fork(Main, 0, 2);
  std::thread T2(Consumer);
  T1.join();
  H.join(Main, 0, 1);
  T2.join();
  H.join(Main, 0, 2);
  H.terminate(Main, 0);

  Trace Observed = mergeTrace(Recs);
  std::set<VarId> Expected{VarId{YObj, 0}};
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, oracleVarSet(Observed));
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, engineVerdicts(Recs));
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, referenceVarSet(Observed));
  checkEngineConsistency(H.Det.engine());
}

//===----------------------------------------------------------------------===//
// Named regression: commit anchors under concurrent GC
//===----------------------------------------------------------------------===//

// Two committers run two-phase commits (commitPoint under a real mutex so
// conflicting commits enter the synchronization order in serialization
// order, finishCommit outside it), while a plain writer races one of the
// committed variables and a noise thread appends enough synchronization to
// keep threshold-GC running. The collector's advance boundary must clamp at
// pending commit anchors: if it ever advanced an Info past one, the
// finish-phase checks would replay the commit's own rule-9 reset and
// silently bless the race on TXN.f0.
TEST(ConcurrencyTest, CommitAnchorsSurviveConcurrentGc) {
  constexpr ObjectId TxnObj = 20; // f0 raced by the plain writer
  constexpr ObjectId NoiseLock = 21;
  constexpr ObjectId NoisePriv = 22;
  constexpr ObjectId CommitterPriv = 23; // +committer id

  EngineConfig C;
  C.GcThreshold = 64; // force frequent collection during commit windows
  Harness H(C);
  std::vector<Recorder> Recs(5);
  Recorder &Main = Recs[0];

  std::mutex CM; // real serialization of commit points

  H.alloc(Main, 0, TxnObj, 4);
  H.alloc(Main, 0, NoiseLock, 1);
  H.alloc(Main, 0, NoisePriv, 4);
  H.alloc(Main, 0, CommitterPriv + 1, 2);
  H.alloc(Main, 0, CommitterPriv + 2, 2);

  auto Committer = [&](ThreadId Tid) {
    Recorder &R = Recs[Tid];
    Random Rng(40 + Tid);
    for (unsigned I = 0; I != 50; ++I) {
      CommitSets CS;
      CS.Reads.push_back(VarId{TxnObj, 1});
      if (Rng.chance(1, 2))
        CS.Reads.push_back(VarId{TxnObj, 2});
      CS.Writes.push_back(VarId{TxnObj, 0});
      if (Rng.chance(1, 2))
        CS.Writes.push_back(VarId{TxnObj, 3});
      {
        std::lock_guard<std::mutex> G(CM);
        H.commitPoint(R, Tid, CS);
      }
      // Window between point and finish: other threads append events and
      // trigger GC here; the pending anchor must pin the walk window.
      H.write(R, Tid, VarId{CommitterPriv + Tid, 0});
      H.read(R, Tid, VarId{CommitterPriv + Tid, 1});
      H.commitFinish(R, Tid, CS);
    }
    H.terminate(R, Tid);
  };

  auto PlainWriter = [&] {
    Recorder &R = Recs[3];
    for (unsigned I = 0; I != 150; ++I) {
      H.write(R, 3, VarId{TxnObj, 0}); // rule 2: plain write vs commit
      H.read(R, 3, VarId{NoisePriv, 3});
    }
    H.terminate(R, 3);
  };

  auto Noise = [&] {
    Recorder &R = Recs[4];
    std::mutex Local;
    for (unsigned I = 0; I != 300; ++I) {
      std::lock_guard<std::mutex> G(Local);
      H.acq(R, 4, NoiseLock);
      H.write(R, 4, VarId{NoisePriv, 0});
      H.rel(R, 4, NoiseLock);
    }
    H.terminate(R, 4);
  };

  std::vector<std::thread> Threads;
  H.fork(Main, 0, 1);
  Threads.emplace_back(Committer, 1);
  H.fork(Main, 0, 2);
  Threads.emplace_back(Committer, 2);
  H.fork(Main, 0, 3);
  Threads.emplace_back(PlainWriter);
  H.fork(Main, 0, 4);
  Threads.emplace_back(Noise);
  for (unsigned I = 0; I != Threads.size(); ++I) {
    Threads[I].join();
    H.join(Main, 0, static_cast<ThreadId>(I + 1));
  }
  H.terminate(Main, 0);

  Trace Observed = mergeTrace(Recs);
  // Only f0 races (plain write vs transactional). f1..f3 are touched by
  // commits alone, and transactional pairs never race; the noise data is
  // lock-protected or private.
  std::set<VarId> Expected{VarId{TxnObj, 0}};
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, oracleVarSet(Observed));
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, engineVerdicts(Recs));
  EXPECT_PRED_FORMAT2(sameVerdicts, Expected, referenceVarSet(Observed));

  GoldilocksEngine &E = H.Det.engine();
  EngineStats St = E.stats();
  EXPECT_GT(St.GcRuns, 0u) << "workload never exercised GC";
  EXPECT_EQ(E.health().DegradationLevel, 0u) << "no caps were set";
  checkEngineConsistency(E);
}

//===----------------------------------------------------------------------===//
// The contention-free access path (DESIGN.md §19): sharded stats, the
// lock-free thread and variable indexes
//===----------------------------------------------------------------------===//

/// Thread \p Tid's share of the stats workload: its own lock and private
/// variables, so every counter it moves is independent of the interleaving
/// (each pair check resolves by same-owner).
void statsWorkload(GoldilocksEngine &E, ThreadId Tid, unsigned Iters) {
  E.registerThread(Tid);
  ObjectId Lock = 1000 + Tid;
  for (unsigned I = 0; I != Iters; ++I) {
    VarId V{2000 + Tid, I % 4};
    E.onAcquire(Tid, Lock);
    EXPECT_FALSE(E.onWrite(Tid, V));
    EXPECT_FALSE(E.onRead(Tid, V));
    E.onRelease(Tid, Lock);
  }
  E.deregisterThread(Tid);
}

// More OS threads than stat shards, so some threads share a shard. Once
// they are joined, the shard sums must equal the totals of the same work
// run on one OS thread, counter by counter (append_retries alone measures
// contention, so only it may differ).
TEST(ConcurrencyTest, StatShardsSumToSingleThreadedTotals) {
  constexpr unsigned N = 20, Iters = 2000;
  GoldilocksEngine Par, Seq;
  std::vector<std::thread> Threads;
  for (unsigned T = 1; T <= N; ++T)
    Threads.emplace_back(statsWorkload, std::ref(Par), T, Iters);
  for (std::thread &Th : Threads)
    Th.join();
  for (unsigned T = 1; T <= N; ++T)
    statsWorkload(Seq, T, Iters);

  EngineStats P = Par.stats(), S = Seq.stats();
  EXPECT_EQ(P.Accesses, uint64_t(N) * Iters * 2);
  EXPECT_EQ(P.SyncEvents, uint64_t(N) * Iters * 2);
#define X(Field, Key)                                                         \
  if (std::string(Key) != "append_retries") {                                 \
    EXPECT_EQ(P.Field, S.Field) << Key;                                       \
  }
  GOLD_ENGINE_STATS(X)
#undef X
  // The health snapshot reads the same shards.
  EXPECT_EQ(Par.health().DegradationEvents, P.DegradationEvents);
}

// The service's pump drives thousands of ThreadIds from one OS thread.
// Phase 1 creates the states (growing the thread index many times) and
// hands a shared variable from each thread to the next under one lock:
// every check after the first resolves by the alock short circuit, which
// reads the accessor's lock stack through the index. Phase 2 looks every
// state up again after all that growth: each thread holds only its own
// lock, so a write by the next thread to a variable it installed must race
// — a lookup that returned another thread's state (or a stale copy) would
// find the installer's lock held and hide the race.
TEST(ConcurrencyTest, OneOsThreadDrivesTenThousandThreadIds) {
  constexpr ThreadId N = 10000;
  constexpr ObjectId Shared = 1, SharedLock = 2, OwnLockBase = 100000,
                     OwnVarBase = 200000;
  EngineConfig C;
  C.EnableProvenance = false;
  GoldilocksEngine E(C);
  for (ThreadId T = 1; T <= N; ++T) {
    E.onAcquire(T, SharedLock);
    EXPECT_FALSE(E.onWrite(T, VarId{Shared, 0}));
    E.onRelease(T, SharedLock);
  }
  EXPECT_EQ(E.stats().Sc3ALock, N - 1);

  for (ThreadId T = 1; T <= N; ++T)
    E.onAcquire(T, OwnLockBase + T);
  for (ThreadId T = 1; T <= N; ++T)
    EXPECT_FALSE(E.onWrite(T, VarId{OwnVarBase + T, 0}));
  unsigned Races = 0;
  for (ThreadId T = 1; T <= N; ++T)
    Races += E.onWrite(T % N + 1, VarId{OwnVarBase + T, 0}).has_value();
  EXPECT_EQ(Races, N);
  EngineStats St = E.stats();
  EXPECT_EQ(St.Sc3ALock, N - 1) << "a lookup saw a foreign lock stack";
  EXPECT_EQ(St.Races, N);
}

// Inserter threads grow the variable index (every access is to a fresh
// variable) while prober threads hit existing entries lock-free, and a
// small GC threshold makes collections free superseded arrays meanwhile.
// Every variable must map to exactly one state: the count of distinct
// variables is exact, and each inserter's re-access finds its own record.
TEST(ConcurrencyTest, VarIndexGrowsUnderConcurrentLookups) {
  constexpr unsigned Inserters = 2, Probers = 2, Fresh = 4000,
                     ProbeIters = 5000;
  EngineConfig C;
  C.GcThreshold = 1024;
  GoldilocksEngine E(C);
  std::atomic<unsigned> Running{Inserters};
  std::vector<std::thread> Threads;
  for (ThreadId T = 1; T <= Inserters; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = 0; I != Fresh; ++I)
        EXPECT_FALSE(E.onWrite(T, VarId{1000 + T, I}));
      Running.fetch_sub(1);
    });
  for (ThreadId T = Inserters + 1; T <= Inserters + Probers; ++T)
    Threads.emplace_back([&, T] {
      // Sync events feed maybeCollect, so trims run during the growth.
      for (unsigned I = 0; I < ProbeIters || Running.load() != 0; ++I) {
        E.onAcquire(T, 500 + T);
        EXPECT_FALSE(E.onWrite(T, VarId{2000 + T, I % 8}));
        E.onRelease(T, 500 + T);
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  EXPECT_EQ(E.distinctVarsChecked(), Inserters * Fresh + Probers * 8);

  EngineStats Before = E.stats();
  for (ThreadId T = 1; T <= Inserters; ++T)
    for (unsigned I = 0; I != Fresh; ++I)
      EXPECT_FALSE(E.onRead(T, VarId{1000 + T, I}));
  EngineStats After = E.stats();
  EXPECT_EQ(After.Sc2SameThread - Before.Sc2SameThread,
            uint64_t(Inserters) * Fresh)
      << "a re-access did not find the inserter's write record";
  EXPECT_EQ(E.distinctVarsChecked(), Inserters * Fresh + Probers * 8);
  EXPECT_GT(After.GcRuns, 0u) << "no collection ran during the growth";
  checkEngineConsistency(E);
}

// Probes park between loading a variable-index array and probing it while
// inserts supersede that array. The growing thread's reclaim must see the
// parked section and leave the array alone (under ASan, freeing it is a
// use-after-free when the probe resumes). No sync events, so no collection
// runs: only the growers' non-blocking reclaim and teardown free arrays.
TEST(ConcurrencyTest, ParkedIndexProbesKeepSupersededArraysAlive) {
  constexpr unsigned Inserters = 2, Probers = 2, Fresh = 8000,
                     ProbeVars = 256; // spread over every shard
  GoldilocksEngine E;
  for (ThreadId T = Inserters + 1; T <= Inserters + Probers; ++T)
    for (unsigned I = 0; I != ProbeVars; ++I)
      EXPECT_FALSE(E.onWrite(T, VarId{3000 + T, I}));

  FailpointConfig FC;
  FC.Seed = 0x1DE;
  FC.StallMicros = 500;
  FC.rate(Failpoint::EngineIndexProbeStall, 20000); // 2% of probes park
  {
    FailpointScope Scope(FC);
    std::atomic<unsigned> Running{Inserters};
    std::vector<std::thread> Threads;
    for (ThreadId T = 1; T <= Inserters; ++T)
      Threads.emplace_back([&, T] {
        for (unsigned I = 0; I != Fresh; ++I)
          EXPECT_FALSE(E.onWrite(T, VarId{1000 + T, I}));
        Running.fetch_sub(1);
      });
    for (ThreadId T = Inserters + 1; T <= Inserters + Probers; ++T)
      Threads.emplace_back([&, T] {
        for (unsigned I = 0; Running.load() != 0; ++I)
          EXPECT_FALSE(E.onRead(T, VarId{3000 + T, I % ProbeVars}));
      });
    for (std::thread &Th : Threads)
      Th.join();
    EXPECT_GT(Failpoints::instance().fires(Failpoint::EngineIndexProbeStall),
              0u);
  }
  EXPECT_EQ(E.distinctVarsChecked(), Inserters * Fresh + Probers * ProbeVars);
  EXPECT_EQ(E.stats().Races, 0u);
}

} // namespace
