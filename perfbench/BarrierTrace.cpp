//===- perfbench/BarrierTrace.cpp - Seeded barrier-idiom traces -----------===//

#include "BarrierTrace.h"

#include "support/Random.h"

#include <algorithm>
#include <numeric>
#include <vector>

using namespace gold;

namespace perfbench {

namespace {

/// Data object holding worker \p W's cells of buffer \p B.
ObjectId dataObject(const BarrierTraceParams &P, unsigned B, unsigned W) {
  return static_cast<ObjectId>(1 + B * P.Workers + W);
}

FieldId flagField(unsigned W) {
  return static_cast<FieldId>(BarrierFlagField0 + W);
}

} // namespace

Trace generateBarrierTrace(const BarrierTraceParams &P) {
  Random Rng(P.Seed);
  TraceBuilder B;
  const unsigned W = P.Workers;
  auto Tid = [](unsigned Worker) { return static_cast<ThreadId>(Worker + 1); };

  B.alloc(0, BarrierFlagsObject, static_cast<FieldId>(W));
  for (unsigned Buf = 0; Buf != 2; ++Buf)
    for (unsigned U = 0; U != W; ++U)
      B.alloc(0, dataObject(P, Buf, U), static_cast<FieldId>(P.CellsPerWorker));
  for (unsigned U = 0; U != W; ++U)
    B.fork(0, Tid(U));

  std::vector<unsigned> Order(W);
  for (unsigned Phase = 0; Phase != P.Phases; ++Phase) {
    const unsigned Cur = Phase % 2, Prev = 1 - Cur;
    // Work: own cells of the current buffer, then the neighbours' cells of
    // the previous one (written before the last barrier).
    for (unsigned U = 0; U != W; ++U) {
      for (unsigned C = 0; C != P.CellsPerWorker; ++C)
        B.write(Tid(U), dataObject(P, Cur, U), static_cast<FieldId>(C));
      if (Phase == 0)
        continue;
      for (unsigned N : {(U + 1) % W, (U + W - 1) % W}) {
        if (N == U)
          continue;
        for (unsigned C = 0; C != P.CellsPerWorker; ++C)
          B.read(Tid(U), dataObject(P, Prev, N), static_cast<FieldId>(C));
      }
    }
    // Barrier: workers arrive in a seeded order. Each arrival publishes its
    // flag; every worker already waiting then spins on the flag of the
    // next worker still missing.
    std::iota(Order.begin(), Order.end(), 0u);
    for (unsigned I = W; I > 1; --I)
      std::swap(Order[I - 1], Order[Rng.nextBelow(I)]);
    for (unsigned K = 0; K != W; ++K) {
      B.volWrite(Tid(Order[K]), BarrierFlagsObject, flagField(Order[K]));
      if (K + 1 == W)
        break;
      for (unsigned J = 0; J <= K; ++J) {
        unsigned Spins = static_cast<unsigned>(
            Rng.nextInRange(P.MinSpins, std::max(P.MinSpins, P.MaxSpins)));
        for (unsigned S = 0; S != Spins; ++S)
          B.volRead(Tid(Order[J]), BarrierFlagsObject,
                    flagField(Order[K + 1]));
      }
    }
    // The successful pass: every worker reads every other flag after it
    // was written, which is the edge that orders the phase.
    for (unsigned U = 0; U != W; ++U)
      for (unsigned V = 0; V != W; ++V)
        if (V != U)
          B.volRead(Tid(U), BarrierFlagsObject, flagField(V));
  }

  for (unsigned U = 0; U != W; ++U)
    B.terminate(Tid(U));
  for (unsigned U = 0; U != W; ++U)
    B.join(0, Tid(U));
  // Main reads the final buffer: ordered by the joins.
  const unsigned Last = (P.Phases + 1) % 2;
  if (P.Phases)
    for (unsigned U = 0; U != W; ++U)
      for (unsigned C = 0; C != P.CellsPerWorker; ++C)
        B.read(0, dataObject(P, Last, U), static_cast<FieldId>(C));
  return B.take();
}

} // namespace perfbench
