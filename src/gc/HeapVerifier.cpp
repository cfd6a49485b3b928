//===- gc/HeapVerifier.cpp - Heap-invariant verifier -----------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "gc/HeapVerifier.h"

#include <chrono>
#include <cstdio>
#include <thread>

#include "runtime/ObjectModel.h"

using namespace gengc;

const char *gengc::verifyScopeName(VerifyScope Scope) {
  switch (Scope) {
  case VerifyScope::Concurrent:
    return "concurrent";
  case VerifyScope::PostTraceFull:
    return "post-trace-full";
  case VerifyScope::CycleEnd:
    return "cycle-end";
  }
  return "invalid";
}

namespace {
/// printf-into-std::string helper for violation messages.
template <typename... Args>
std::string format(const char *Fmt, Args... Values) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), Fmt, Values...);
  return Buf;
}

/// Transient-window confirmation: the protocol permits short inconsistent
/// windows (a card byte stored before its summary byte, a referent stored
/// before the barrier shades it).  Re-evaluate \p StillViolated across a few
/// pauses; only a violation that survives every re-read is real.
template <typename Fn> bool confirmViolation(Fn StillViolated) {
  for (unsigned Round = 0; Round < 8; ++Round) {
    if (!StillViolated())
      return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return StillViolated();
}
} // namespace

void HeapVerifier::addViolation(Report &R, std::string Message) const {
  if (R.Violations.size() < MaxViolations)
    R.Violations.push_back(std::move(Message));
  else
    ++R.Suppressed;
}

void HeapVerifier::verifyBlockTable(Report &R) const {
  H.withBlocksLocked([&] {
    size_t NumBlocks = H.numBlocks();
    uint64_t FreeSeen = 0;
    for (size_t I = 0; I < NumBlocks; ++I) {
      const BlockDescriptor &Desc = H.block(I);
      BlockState S = Desc.State.load(std::memory_order_acquire);
      ++R.ChecksRun;
      switch (S) {
      case BlockState::Free:
        ++FreeSeen;
        break;
      case BlockState::Reserved:
        if (I != 0)
          addViolation(R, format("block %zu is Reserved (only block 0 may "
                                 "reserve the null ref)",
                                 I));
        break;
      case BlockState::SizeClass: {
        if (Desc.SizeClassIdx >= NumSizeClasses ||
            Desc.CellBytes != sizeClassBytes(Desc.SizeClassIdx)) {
          addViolation(R, format("block %zu: size class %u / cell bytes %u "
                                 "mismatch",
                                 I, unsigned(Desc.SizeClassIdx),
                                 unsigned(Desc.CellBytes)));
          break;
        }
        if (Desc.NumCells == 0 ||
            uint64_t(Desc.NumCells) * Desc.CellBytes > Heap::BlockBytes)
          addViolation(R, format("block %zu: %u cells of %u bytes overflow "
                                 "the block",
                                 I, unsigned(Desc.NumCells),
                                 unsigned(Desc.CellBytes)));
        break;
      }
      case BlockState::LargeStart: {
        if (Desc.RunBlocks == 0 || I + Desc.RunBlocks > NumBlocks ||
            uint64_t(Desc.LargeBytes) >
                uint64_t(Desc.RunBlocks) * Heap::BlockBytes) {
          addViolation(R, format("block %zu: large run of %u blocks / %u "
                                 "bytes is incoherent",
                                 I, unsigned(Desc.RunBlocks),
                                 unsigned(Desc.LargeBytes)));
          break;
        }
        for (uint32_t J = 1; J < Desc.RunBlocks; ++J) {
          const BlockDescriptor &Cont = H.block(I + J);
          ++R.ChecksRun;
          if (Cont.State.load(std::memory_order_relaxed) !=
                  BlockState::LargeCont ||
              Cont.RunStart != I)
            addViolation(R, format("block %zu: not a continuation of the "
                                   "large run starting at %zu",
                                   I + J, I));
        }
        break;
      }
      case BlockState::LargeCont: {
        // Covered from its LargeStart above; standalone sanity: the run
        // start it names must be a LargeStart that reaches it.
        const BlockDescriptor &Start = H.block(Desc.RunStart);
        if (Start.State.load(std::memory_order_relaxed) !=
                BlockState::LargeStart ||
            Desc.RunStart >= I || Desc.RunStart + Start.RunBlocks <= I)
          addViolation(R, format("block %zu: dangling LargeCont (run start "
                                 "%u)",
                                 I, unsigned(Desc.RunStart)));
        break;
      }
      }
    }
    ++R.ChecksRun;
    if (FreeSeen != H.freeBlockCount())
      addViolation(R, format("free-block count %llu != %llu Free blocks in "
                             "the table",
                             (unsigned long long)H.freeBlockCount(),
                             (unsigned long long)FreeSeen));
  });
}

void HeapVerifier::verifyFreeLists(Report &R) const {
  H.forEachFreeChain([&](unsigned ClassIdx, const Heap::CellChain &Chain) {
    uint32_t CellBytes = sizeClassBytes(ClassIdx);
    uint32_t Walked = 0;
    for (ObjectRef Cell = Chain.Head; Cell != NullRef;
         Cell = H.chainNext(Cell)) {
      if (++Walked > Chain.Count) {
        addViolation(R, format("class %u: free chain longer than its count "
                               "%u (cycle or corrupt link)",
                               ClassIdx, unsigned(Chain.Count)));
        break;
      }
      ++R.ChecksRun;
      uint32_t BlockIdx = H.blockIndexOf(Cell);
      const BlockDescriptor &Desc = H.block(BlockIdx);
      uint64_t Base = uint64_t(BlockIdx) << Heap::BlockShift;
      if (Desc.State.load(std::memory_order_acquire) !=
              BlockState::SizeClass ||
          Desc.SizeClassIdx != ClassIdx ||
          (uint64_t(Cell) - Base) % CellBytes != 0) {
        addViolation(R, format("class %u: free cell %llx is not a class-%u "
                               "cell boundary",
                               ClassIdx, (unsigned long long)Cell, ClassIdx));
        continue;
      }
      ++R.ChecksRun;
      if (H.loadColor(Cell) != Color::Blue)
        addViolation(R, format("class %u: free cell %llx is %s, not blue",
                               ClassIdx, (unsigned long long)Cell,
                               colorName(H.loadColor(Cell))));
    }
    ++R.ChecksRun;
    if (Walked != Chain.Count)
      addViolation(R, format("class %u: free chain count %u but %u cells "
                             "linked",
                             ClassIdx, unsigned(Chain.Count),
                             unsigned(Walked)));
  });
}

void HeapVerifier::verifyColors(Report &R, VerifyScope Scope) const {
  Color Clear = State.clearColor();
  bool NoClear = Scope == VerifyScope::CycleEnd;
  H.forEachObjectCell([&](ObjectRef Ref) {
    ++R.ChecksRun;
    uint8_t Raw = uint8_t(H.loadColor(Ref, std::memory_order_relaxed));
    if (Raw > uint8_t(Color::Black)) {
      addViolation(R, format("cell %llx has illegal color byte %u",
                             (unsigned long long)Ref, unsigned(Raw)));
      return;
    }
    if (NoClear && Color(Raw) == Clear &&
        confirmViolation([&] { return H.loadColor(Ref) == Clear; }))
      addViolation(R, format("cell %llx still carries the clear color (%s) "
                             "after sweep",
                             (unsigned long long)Ref, colorName(Clear)));
  });
}

void HeapVerifier::verifyCardSummaries(Report &R) const {
  const CardTable &Cards = H.cards();
  Cards.forEachDirtyIndex([&](size_t CardIdx) {
    ++R.ChecksRun;
    size_t Chunk = Cards.summaryChunkFor(CardIdx);
    // markCard stores the card byte (relaxed) before the summary byte
    // (release); a dirty card whose summary is clean can therefore be a
    // store in flight.  Confirm before reporting.  The converse — a set
    // summary over clean cards — is legal (freeLargeRun clears cards and
    // leaves summaries conservatively set).
    if (!Cards.isSummaryDirty(Chunk) &&
        confirmViolation([&] {
          return Cards.isDirty(CardIdx) && !Cards.isSummaryDirty(Chunk);
        }))
      addViolation(R, format("card %zu is dirty but summary chunk %zu is "
                             "clean",
                             CardIdx, Chunk));
  });
}

void HeapVerifier::verifyNoClearRefsFromTraced(Report &R,
                                               Color TracedBlack) const {
  Color Clear = State.clearColor();
  H.forEachObjectCell([&](ObjectRef Ref) {
    if (H.loadColor(Ref) != TracedBlack)
      return;
    uint32_t Slots = objectRefSlots(H, Ref);
    uint32_t Capacity = H.storageBytesOf(Ref);
    if (ObjectHeaderBytes + uint64_t(Slots) * RefSlotBytes > Capacity)
      return; // racing (re)initialization; the header is not stable yet
    for (uint32_t Slot = 0; Slot < Slots; ++Slot) {
      ++R.ChecksRun;
      ObjectRef Son = loadRefSlot(H, Ref, Slot);
      if (Son == NullRef || Son >= H.heapBytes())
        continue;
      if (H.loadColor(Son) != Clear)
        continue;
      // The barrier stores the referent before shading it, so a clear son
      // can be a shade in flight; and the slot itself may move on.  A real
      // tri-color break is stable: the parent stays traced, the slot keeps
      // the son, the son stays clear.
      if (confirmViolation([&] {
            return H.loadColor(Ref) == TracedBlack &&
                   loadRefSlot(H, Ref, Slot) == Son &&
                   H.loadColor(Son) == Clear;
          }))
        addViolation(R,
                     format("traced %s object %llx slot %u references "
                            "clear-colored %llx after full trace",
                            colorName(TracedBlack), (unsigned long long)Ref,
                            Slot, (unsigned long long)Son));
    }
  });
}

HeapVerifier::Report HeapVerifier::run(VerifyScope Scope,
                                       Color TracedBlack) const {
  Report R;
  verifyBlockTable(R);
  verifyFreeLists(R);
  verifyColors(R, Scope);
  verifyCardSummaries(R);
  if (Scope == VerifyScope::PostTraceFull)
    verifyNoClearRefsFromTraced(R, TracedBlack);
  return R;
}
