//===- perfbench/BarrierTrace.h - Seeded barrier-idiom traces ---*- C++ -*-===//
///
/// \file
/// Generates linearized traces of the Java Grande volatile-flag barrier
/// idiom (workloads/Common.h's BarrierLib): W workers each own a volatile
/// phase flag; per phase a worker writes its own cells of a double-buffered
/// array, reads its neighbours' cells of the previous buffer, publishes the
/// phase in its flag and spins reading the flags of workers that have not
/// arrived yet, then reads every other flag once more after it was written.
///
/// Every spin read is a volatile read, and a precise engine appends one
/// synchronization-event cell per volatile read, so the cells a trace
/// appends grow linearly with its spin count while its data accesses and
/// walk windows stay put. The double buffering makes every trace race-free
/// by the happens-before oracle: a write to a buffer in phase p and the
/// neighbour reads of it in phase p+1 are ordered through the phase-p
/// flags, and the next write to that buffer (phase p+2) waits for the
/// readers' phase-p+1 flags.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BARRIERTRACE_H
#define PERFBENCH_BARRIERTRACE_H

#include "event/Trace.h"

#include <cstdint>

namespace perfbench {

struct BarrierTraceParams {
  uint64_t Seed = 1;
  unsigned Workers = 3;       ///< worker threads T1..TW (T0 is main)
  unsigned Phases = 8;        ///< barrier episodes
  unsigned CellsPerWorker = 4; ///< data fields each worker owns per buffer
  /// Failed spin reads a waiting worker makes each time another worker
  /// arrives, drawn uniformly from [MinSpins, MaxSpins] per (phase, waiter).
  unsigned MinSpins = 1;
  unsigned MaxSpins = 1;
};

/// Object that holds the workers' volatile phase flags (one field each).
inline constexpr gold::ObjectId BarrierFlagsObject = 0;
/// Volatile fields are numbered from here, like RandomTrace's.
inline constexpr gold::FieldId BarrierFlagField0 = 1000;

/// Generates one barrier-idiom trace. Same parameters, same trace.
gold::Trace generateBarrierTrace(const BarrierTraceParams &P);

} // namespace perfbench

#endif // PERFBENCH_BARRIERTRACE_H
