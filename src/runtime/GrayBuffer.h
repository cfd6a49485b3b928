//===- runtime/GrayBuffer.h - Pending gray objects --------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mechanism for "keeping track of the objects remaining to be traced"
/// that the DLG papers leave unspecified (Section 7).  Every successful
/// shade-to-gray appends the object here; the tracer drains it.  Shading is
/// rare (once per object per cycle, only during collection stages), so a
/// mutex-protected vector is plenty — the write barrier's fast path never
/// touches it.
///
/// The buffer is an optimization, not the correctness anchor: the tracer
/// finishes with a verification scan of the color table, so an enqueue
/// that is still in flight when the buffer looks empty is caught there.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_RUNTIME_GRAYBUFFER_H
#define GENGC_RUNTIME_GRAYBUFFER_H

#include <mutex>
#include <vector>

#include "heap/Ref.h"

namespace gengc {

/// A multi-producer buffer of objects shaded gray.
class GrayBuffer {
public:
  /// Appends \p Ref (mutators and collector, after winning a gray CAS).
  void push(ObjectRef Ref) {
    std::scoped_lock Locked(Mutex);
    Pending.push_back(Ref);
  }

  /// Appends many refs under one lock acquisition (collector bulk shading,
  /// e.g. ClearCards re-graying thousands of old objects).
  void pushMany(const std::vector<ObjectRef> &Refs) {
    if (Refs.empty())
      return;
    std::scoped_lock Locked(Mutex);
    Pending.insert(Pending.end(), Refs.begin(), Refs.end());
  }

  /// Moves all pending entries into \p Out (collector only).
  /// \returns true if anything was drained.
  bool drainTo(std::vector<ObjectRef> &Out) {
    std::scoped_lock Locked(Mutex);
    if (Pending.empty())
      return false;
    Out.insert(Out.end(), Pending.begin(), Pending.end());
    Pending.clear();
    return true;
  }

  /// Discards stale entries (start of a cycle; leftovers from late shades
  /// of the previous cycle are re-discovered by color if still gray).
  void clear() {
    std::scoped_lock Locked(Mutex);
    Pending.clear();
  }

private:
  std::mutex Mutex;
  std::vector<ObjectRef> Pending;
};

} // namespace gengc

#endif // GENGC_RUNTIME_GRAYBUFFER_H
