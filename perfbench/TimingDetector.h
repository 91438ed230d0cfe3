//===- perfbench/TimingDetector.h - Hook-boundary timing --------*- C++ -*-===//
///
/// \file
/// A RaceDetector decorator that times every hook call at the boundary
/// between the MiniJVM and the detector. It forwards every virtual of the
/// interface, including the ones with non-trivial defaults (a missing
/// onCommitFinish override would fall back to onCommit, and a missing
/// onThreadExit override would skip the engine's deregisterThread), so the
/// wrapped engine runs exactly the path it runs unwrapped.
///
/// Counts and total time are exact for every call. Individual durations are
/// kept as spans, in memory and per OS thread, for one call in every
/// SampleStride of each hook class; they are merged and handed out only
/// after the run, so no lock is taken on the hook path after a thread's
/// first call.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TIMINGDETECTOR_H
#define PERFBENCH_TIMINGDETECTOR_H

#include "detectors/RaceDetector.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace perfbench {

/// Hook classes the decorator reports separately.
enum class Hook : uint8_t {
  Access,   ///< onRead, onWrite
  Lock,     ///< onAcquire, onRelease
  Volatile, ///< onVolatileRead, onVolatileWrite
  ForkJoin, ///< onFork, onJoin
  Commit,   ///< onCommit, onCommitPoint, onCommitFinish
  Other,    ///< onAlloc, onTerminate, onThreadExit
};
inline constexpr size_t NumHooks = 6;

inline const char *hookName(Hook H) {
  static const char *const Names[NumHooks] = {
      "access", "lock", "volatile", "fork_join", "commit", "other"};
  return Names[static_cast<size_t>(H)];
}

/// One sampled hook call: its class, the OS-thread slot that made it, and
/// its start and duration on the steady clock.
struct HookSpan {
  Hook Kind;
  uint32_t Thread;
  uint64_t StartNanos;
  uint64_t DurNanos;
};

struct HookTotals {
  uint64_t Calls = 0;
  uint64_t Nanos = 0;
};

/// Merged result of one run.
struct HookReport {
  std::array<HookTotals, NumHooks> Totals{};
  /// Sum over OS threads of (last hook end - first hook start): the span of
  /// the thread's life in which it called into the detector.
  uint64_t ThreadLifetimeNanos = 0;
  std::vector<HookSpan> Spans;
};

class TimingDetector final : public gold::RaceDetector {
public:
  /// Wraps \p Inner (not owned; must outlive this decorator). One call in
  /// every \p SampleStride of each hook class, per thread, is kept as a
  /// span; rarely called classes (lock, fork/join, commit) keep every call.
  explicit TimingDetector(gold::RaceDetector &Inner, uint32_t SampleStride = 8)
      : Inner(Inner), Stride(SampleStride ? SampleStride : 1),
        Id(nextId()) {}

  std::optional<gold::RaceReport> onRead(gold::ThreadId T,
                                         gold::VarId V) override {
    Scope S(*this, Hook::Access);
    return Inner.onRead(T, V);
  }
  std::optional<gold::RaceReport> onWrite(gold::ThreadId T,
                                          gold::VarId V) override {
    Scope S(*this, Hook::Access);
    return Inner.onWrite(T, V);
  }
  void onAlloc(gold::ThreadId T, gold::ObjectId O,
               uint32_t FieldCount) override {
    Scope S(*this, Hook::Other);
    Inner.onAlloc(T, O, FieldCount);
  }
  void onAcquire(gold::ThreadId T, gold::ObjectId O) override {
    Scope S(*this, Hook::Lock);
    Inner.onAcquire(T, O);
  }
  void onRelease(gold::ThreadId T, gold::ObjectId O) override {
    Scope S(*this, Hook::Lock);
    Inner.onRelease(T, O);
  }
  void onVolatileRead(gold::ThreadId T, gold::VarId V) override {
    Scope S(*this, Hook::Volatile);
    Inner.onVolatileRead(T, V);
  }
  void onVolatileWrite(gold::ThreadId T, gold::VarId V) override {
    Scope S(*this, Hook::Volatile);
    Inner.onVolatileWrite(T, V);
  }
  void onFork(gold::ThreadId T, gold::ThreadId Child) override {
    Scope S(*this, Hook::ForkJoin);
    Inner.onFork(T, Child);
  }
  void onJoin(gold::ThreadId T, gold::ThreadId Child) override {
    Scope S(*this, Hook::ForkJoin);
    Inner.onJoin(T, Child);
  }
  void onTerminate(gold::ThreadId T) override {
    Scope S(*this, Hook::Other);
    Inner.onTerminate(T);
  }
  void onThreadExit(gold::ThreadId T) override {
    Scope S(*this, Hook::Other);
    Inner.onThreadExit(T);
  }
  std::vector<gold::RaceReport> onCommit(gold::ThreadId T,
                                         const gold::CommitSets &CS) override {
    Scope S(*this, Hook::Commit);
    return Inner.onCommit(T, CS);
  }
  void onCommitPoint(gold::ThreadId T, const gold::CommitSets &CS) override {
    Scope S(*this, Hook::Commit);
    Inner.onCommitPoint(T, CS);
  }
  std::vector<gold::RaceReport>
  onCommitFinish(gold::ThreadId T, const gold::CommitSets &CS) override {
    Scope S(*this, Hook::Commit);
    return Inner.onCommitFinish(T, CS);
  }
  const char *name() const override { return Inner.name(); }
  std::optional<gold::EngineHealth> health() const override {
    return Inner.health();
  }
  std::optional<gold::TelemetrySnapshot> telemetry() const override {
    return Inner.telemetry();
  }

  /// Merges every thread's totals and spans. Call after the run, when no
  /// thread is inside a hook.
  HookReport report() const {
    HookReport R;
    std::lock_guard<std::mutex> G(Mu);
    for (const auto &PT : Threads) {
      for (size_t I = 0; I != NumHooks; ++I) {
        R.Totals[I].Calls += PT->Totals[I].Calls;
        R.Totals[I].Nanos += PT->Totals[I].Nanos;
      }
      if (PT->LastEnd > PT->FirstStart)
        R.ThreadLifetimeNanos += PT->LastEnd - PT->FirstStart;
      R.Spans.insert(R.Spans.end(), PT->Spans.begin(), PT->Spans.end());
    }
    return R;
  }

  static uint64_t nowNanos() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

private:
  struct PerThread {
    uint32_t Slot = 0;
    uint64_t FirstStart = 0;
    uint64_t LastEnd = 0;
    std::array<HookTotals, NumHooks> Totals{};
    std::vector<HookSpan> Spans;
  };

  /// Times one hook call and records it on the calling thread's record.
  class Scope {
  public:
    Scope(TimingDetector &D, Hook K)
        : PT(D.threadRecord()), Kind(K), Keep(D.keep(*PT, K)),
          Start(nowNanos()) {}
    ~Scope() {
      uint64_t End = nowNanos();
      HookTotals &Tot = PT->Totals[static_cast<size_t>(Kind)];
      ++Tot.Calls;
      Tot.Nanos += End - Start;
      if (!PT->FirstStart)
        PT->FirstStart = Start;
      PT->LastEnd = End;
      if (Keep)
        PT->Spans.push_back(HookSpan{Kind, PT->Slot, Start, End - Start});
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    PerThread *PT;
    Hook Kind;
    bool Keep;
    uint64_t Start;
  };

  /// The calling OS thread's record, created on its first hook call. The
  /// cache is keyed by a per-instance id, never by address, so a thread that
  /// outlives one decorator cannot write into a freed record when the next
  /// decorator is built at the same address.
  PerThread *threadRecord() {
    thread_local uint64_t OwnerId = 0;
    thread_local PerThread *Cached = nullptr;
    if (OwnerId == Id)
      return Cached;
    std::lock_guard<std::mutex> G(Mu);
    Threads.push_back(std::make_unique<PerThread>());
    Threads.back()->Slot = static_cast<uint32_t>(Threads.size() - 1);
    OwnerId = Id;
    Cached = Threads.back().get();
    return Cached;
  }

  static uint64_t nextId() {
    static std::atomic<uint64_t> Next{1};
    return Next.fetch_add(1, std::memory_order_relaxed);
  }

  bool keep(const PerThread &PT, Hook K) const {
    if (K == Hook::Lock || K == Hook::ForkJoin || K == Hook::Commit)
      return true;
    return PT.Totals[static_cast<size_t>(K)].Calls % Stride == 0;
  }

  gold::RaceDetector &Inner;
  const uint32_t Stride;
  const uint64_t Id;
  mutable std::mutex Mu;
  std::vector<std::unique_ptr<PerThread>> Threads; ///< guarded by Mu
};

} // namespace perfbench

#endif // PERFBENCH_TIMINGDETECTOR_H
