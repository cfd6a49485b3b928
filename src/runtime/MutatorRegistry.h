//===- runtime/MutatorRegistry.h - Thread registration ----------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tracks the set of live mutators so the collector can run handshakes.
/// Threads may register and deregister at any time, including mid-cycle:
/// a registering mutator adopts the collector's current status under the
/// registry lock (so it owes no pending response), and a deregistering one
/// simply disappears from the set the collector polls.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_RUNTIME_MUTATORREGISTRY_H
#define GENGC_RUNTIME_MUTATORREGISTRY_H

#include <mutex>
#include <vector>

#include "runtime/CollectorState.h"

namespace gengc {

class Mutator;

/// The set of registered mutators, guarded by one mutex.
class MutatorRegistry {
public:
  explicit MutatorRegistry(CollectorState &S) : State(S) {}

  /// Registers \p M and synchronizes its status with the collector's.
  void add(Mutator &M);

  /// Removes \p M; blocks while the collector is inspecting the set.
  void remove(Mutator &M);

  /// Number of registered mutators.
  size_t size() const;

  /// Runs \p Fn(Mutator&) for every registered mutator, under the registry
  /// lock (collector only; keep the callback short).
  template <typename Fn> void forEach(Fn Callback) {
    std::scoped_lock Locked(Mutex);
    for (Mutator *M : Mutators)
      Callback(*M);
  }

private:
  CollectorState &State;
  mutable std::mutex Mutex;
  std::vector<Mutator *> Mutators;
  /// Next registration id handed out by add().  Ids are stable for a
  /// mutator's lifetime and never reused.
  uint64_t NextId = 0;
};

} // namespace gengc

#endif // GENGC_RUNTIME_MUTATORREGISTRY_H
