//===- support/GrowOnlyIndex.h - Lock-free lookup pointer index -*- C++ -*-===//
///
/// \file
/// A grow-only open-addressing index from 64-bit keys to stable pointers,
/// for lookups on a path many threads share. A lookup takes no lock and
/// writes nothing: it probes with acquire loads of atomic slots. Inserts and
/// growth must be serialized by the owner's mutex and publish with release
/// stores. Entries are never removed (the pointees live until the owner's
/// teardown), so the table needs no tombstones and probe chains never break.
///
/// Growth copies the entries into an array twice the size and publishes it;
/// the old array is *retired*, not freed, because a concurrent lookup may
/// still be probing it. A lookup that raced a growth can miss a key inserted
/// after the swap, so a lock-free miss is never final: callers take the
/// mutex and look again. The owner decides when no lookup can
/// still hold a retired array — takeRetired() detaches them, freeChain()
/// frees them — and the destructor frees whatever is left.
///
//===----------------------------------------------------------------------===//

#ifndef GOLD_SUPPORT_GROWONLYINDEX_H
#define GOLD_SUPPORT_GROWONLYINDEX_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>

namespace gold {

/// \p KeyOf is a default-constructible functor mapping `const T &` to the
/// entry's 64-bit key.
template <typename T, typename KeyOf> class GrowOnlyIndex {
public:
  /// One slot array: a header followed by Mask + 1 atomic slots in the same
  /// allocation (one dependent load from the array pointer to a slot).
  struct Array {
    size_t Mask = 0;
    Array *Older = nullptr; ///< next retired array (retired chain only)
    std::atomic<T *> *slots() {
      return reinterpret_cast<std::atomic<T *> *>(this + 1);
    }
  };

  GrowOnlyIndex() = default;
  ~GrowOnlyIndex() {
    freeChain(Cur.load(std::memory_order_relaxed));
    freeChain(Retired);
  }
  GrowOnlyIndex(const GrowOnlyIndex &) = delete;
  GrowOnlyIndex &operator=(const GrowOnlyIndex &) = delete;

  /// Lock-free lookup. Without the mutex a miss may be stale (see the file
  /// comment); under it, a miss is final.
  T *find(uint64_t Key) const { return probe(current(), Key); }

  /// The current array, for a lookup split in two (find() is
  /// probe(current(), Key)). seq_cst so the owner's grace argument for
  /// freeing retired arrays covers it (a plain load on x86).
  Array *current() const { return Cur.load(std::memory_order_seq_cst); }

  /// Probes \p A (null: empty index) for \p Key.
  static T *probe(Array *A, uint64_t Key) {
    if (!A)
      return nullptr;
    std::atomic<T *> *Slots = A->slots();
    for (size_t I = probeStart(Key, A->Mask);; I = (I + 1) & A->Mask) {
      T *P = Slots[I].load(std::memory_order_acquire);
      if (!P || KeyOf()(*P) == Key)
        return P;
    }
  }

  /// Makes room for one more entry, growing at load factor 3/4. Returns
  /// true when the growth retired an array. May throw bad_alloc; call it
  /// before allocating the pointee so the insert() that follows cannot
  /// fail. Requires the mutex.
  bool reserveOne() {
    Array *A = Cur.load(std::memory_order_relaxed);
    size_t Size = A ? A->Mask + 1 : 0;
    if ((Count + 1) * 4 < Size * 3)
      return false;
    size_t NewSize = Size ? Size * 2 : 16;
    Array *N = allocArray(NewSize);
    if (A) {
      std::atomic<T *> *Slots = A->slots();
      for (size_t I = 0; I != Size; ++I)
        if (T *P = Slots[I].load(std::memory_order_relaxed))
          place(N, P);
      A->Older = Retired;
      Retired = A;
    }
    Cur.store(N, std::memory_order_seq_cst);
    return A != nullptr;
  }

  /// Links \p P, whose key must be absent. Requires the mutex and a prior
  /// reserveOne(). Never fails.
  void insert(T *P) {
    place(Cur.load(std::memory_order_relaxed), P);
    ++Count;
  }

  /// Entries inserted so far. Requires the mutex.
  size_t size() const { return Count; }

  /// Calls \p Fn on every entry of the current array. Safe without the
  /// mutex only while no one frees retired arrays concurrently (an entry
  /// inserted meanwhile may or may not be visited).
  template <typename F> void forEach(F Fn) const {
    Array *A = Cur.load(std::memory_order_acquire);
    if (!A)
      return;
    std::atomic<T *> *Slots = A->slots();
    for (size_t I = 0; I <= A->Mask; ++I)
      if (T *P = Slots[I].load(std::memory_order_acquire))
        Fn(P);
  }

  /// Detaches the chain of retired arrays. Requires the mutex.
  Array *takeRetired() {
    Array *R = Retired;
    Retired = nullptr;
    return R;
  }

  /// Frees \p A and every array chained behind it through Older.
  static void freeChain(Array *A) {
    while (A) {
      Array *Next = A->Older;
      A->~Array();
      ::operator delete(A);
      A = Next;
    }
  }

  /// Appends the chain \p B behind the chain \p A; returns the joined head.
  static Array *joinChains(Array *A, Array *B) {
    if (!A)
      return B;
    Array *T2 = A;
    while (T2->Older)
      T2 = T2->Older;
    T2->Older = B;
    return A;
  }

private:
  static size_t probeStart(uint64_t Key, size_t Mask) {
    return static_cast<size_t>((Key * 0xFF51AFD7ED558CCDull) >> 17) & Mask;
  }

  static Array *allocArray(size_t Size) {
    void *Mem = ::operator new(sizeof(Array) + Size * sizeof(std::atomic<T *>));
    Array *A = new (Mem) Array;
    A->Mask = Size - 1;
    std::atomic<T *> *Slots = A->slots();
    for (size_t I = 0; I != Size; ++I)
      new (&Slots[I]) std::atomic<T *>(nullptr);
    return A;
  }

  /// Release store: a lookup that acquires the slot sees the pointee fully
  /// built (its key in particular).
  static void place(Array *A, T *P) {
    std::atomic<T *> *Slots = A->slots();
    size_t I = probeStart(KeyOf()(*P), A->Mask);
    while (Slots[I].load(std::memory_order_relaxed))
      I = (I + 1) & A->Mask;
    Slots[I].store(P, std::memory_order_release);
  }

  std::atomic<Array *> Cur{nullptr};
  Array *Retired = nullptr; ///< superseded arrays, newest first (mutex)
  size_t Count = 0;         ///< entries (mutex)
};

} // namespace gold

#endif // GOLD_SUPPORT_GROWONLYINDEX_H
