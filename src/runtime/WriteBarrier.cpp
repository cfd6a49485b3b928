//===- runtime/WriteBarrier.cpp - MarkGray and update barriers ------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "runtime/WriteBarrier.h"

#include "runtime/Mutator.h"

using namespace gengc;

/// Records a successful clear->gray shade in \p Counters.
static void noteGrayFromClear(Heap &H, ObjectRef X, GrayCounters &Counters) {
  Counters.FromClear.fetch_add(1, std::memory_order_relaxed);
  Counters.FromClearBytes.fetch_add(H.storageBytesOf(X),
                                    std::memory_order_relaxed);
}

/// Shades \p X gray if its color is \p From and enqueues it for the tracer.
/// The CAS-and-push pair runs inside the in-flight window the tracer's
/// termination protocol waits on, so the enqueue cannot be missed.  The
/// cheap pre-check keeps the shared counter off the barrier's common path:
/// colors never *become* the clear color mid-cycle, so a non-matching load
/// is conclusive.
bool gengc::shadeGray(Heap &H, CollectorState &S, ObjectRef X, Color From) {
  if (H.loadColor(X, std::memory_order_acquire) != From ||
      From == Color::Gray)
    return false;
  S.InFlightShades.fetch_add(1, std::memory_order_acq_rel);
  bool Won = tryMarkGray(H, X, From);
  if (Won)
    S.Grays.push(X);
  S.InFlightShades.fetch_sub(1, std::memory_order_acq_rel);
  return Won;
}

void gengc::markGraySimple(Heap &H, CollectorState &S,
                           HandshakeStatus StatusM, ObjectRef X,
                           GrayCounters &Counters) {
  if (X == NullRef)
    return;
  if (shadeGray(H, S, X, S.clearColor())) {
    noteGrayFromClear(H, X, Counters);
    return;
  }
  // The Section 7.1 exception: between the first and third handshakes,
  // allocation-colored (yellow) objects are shaded too, closing the window
  // between the card-table scan and the color toggle.
  if (StatusM != HandshakeStatus::Async)
    shadeGray(H, S, X, S.allocationColor());
}

void gengc::markGrayClearOnly(Heap &H, CollectorState &S, ObjectRef X,
                              GrayCounters &Counters) {
  if (X == NullRef)
    return;
  if (shadeGray(H, S, X, S.clearColor()))
    noteGrayFromClear(H, X, Counters);
}

/// Records the inter-generational-pointer candidate created by a store
/// into \p X: a dirty card over the slot (the paper's choice) or a
/// remembered-set entry for X (the Section 3.1 alternative).  Card marking
/// is two plain byte stores — the card byte and its summary-chunk byte
/// (CardTable::markCard) — still free of read-modify-write, preserving the
/// fine-grained-atomicity property the paper demands of the barrier.  The
/// remembered-set flag exchange makes each object enter the set once per
/// cycle; the paper notes this dedup needs a header bit their JVM lacked —
/// our side table provides it, at the cost the paper predicted: a
/// read-modify-write on every recording store instead of plain byte stores.
static void recordInterGen(Heap &H, CollectorState &S, ObjectRef X,
                           uint64_t SlotOffset) {
  if (!S.UseRememberedSets.load(std::memory_order_relaxed)) {
    H.cards().markCard(SlotOffset);
    return;
  }
  if (H.rememberedFlags().entryFor(X).exchange(
          1, std::memory_order_acq_rel) == 0)
    S.Remembered.push(X);
}

//===----------------------------------------------------------------------===//
// The Update routine (Figures 1 and 4), implemented as Mutator::writeRef so
// it can read the mutator's own status and feed its counters.
//===----------------------------------------------------------------------===//

void Mutator::writeRef(ObjectRef X, uint32_t SlotIdx, ObjectRef Y) {
  GENGC_ASSERT(X != NullRef, "update through a null reference");
  GENGC_ASSERT(SlotIdx < objectRefSlots(H, X), "ref slot out of range");
  HandshakeStatus SM = StatusM.load(std::memory_order_relaxed);
  uint64_t SlotOffset = refSlotOffset(X, SlotIdx);

  switch (State.Barrier.load(std::memory_order_relaxed)) {
  case BarrierKind::Simple:
    // Figure 1.  Card marking happens only during async (Section 7.1);
    // during sync1/sync2 the yellow-shading exception substitutes for it.
    if (SM != HandshakeStatus::Async) {
      markGraySimple(H, State, SM, loadRefSlot(H, X, SlotIdx), Grays);
      markGraySimple(H, State, SM, Y, Grays);
    } else if (State.isTracing()) {
      markGraySimple(H, State, SM, loadRefSlot(H, X, SlotIdx), Grays);
      recordInterGen(H, State, X, SlotOffset);
    } else {
      recordInterGen(H, State, X, SlotOffset);
    }
    H.wordAt(SlotOffset).store(Y, std::memory_order_release);
    return;

  case BarrierKind::Aging:
    // Figure 4.  The card (and its summary byte) is marked in *every*
    // state, and strictly after the pointer store: this is the mutator's
    // half of the Section 7.2 two-step/three-step race resolution, run at
    // both levels of the card table.
    if (SM != HandshakeStatus::Async) {
      markGrayClearOnly(H, State, loadRefSlot(H, X, SlotIdx), Grays);
      markGrayClearOnly(H, State, Y, Grays);
    } else if (State.isTracing()) {
      markGrayClearOnly(H, State, loadRefSlot(H, X, SlotIdx), Grays);
    }
    H.wordAt(SlotOffset).store(Y, std::memory_order_release);
    H.cards().markCard(SlotOffset);
    return;

  case BarrierKind::NonGenerational:
    // Original DLG barrier: shade, no cards.
    if (SM != HandshakeStatus::Async) {
      markGrayClearOnly(H, State, loadRefSlot(H, X, SlotIdx), Grays);
      markGrayClearOnly(H, State, Y, Grays);
    } else if (State.isTracing()) {
      markGrayClearOnly(H, State, loadRefSlot(H, X, SlotIdx), Grays);
    }
    H.wordAt(SlotOffset).store(Y, std::memory_order_release);
    return;
  }
  GENGC_UNREACHABLE("unknown barrier kind");
}
