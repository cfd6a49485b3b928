//===- runtime/MutatorRegistry.cpp - Thread registration -------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "runtime/MutatorRegistry.h"

#include <algorithm>

#include "runtime/Mutator.h"
#include "support/Assert.h"

using namespace gengc;

void MutatorRegistry::add(Mutator &M) {
  std::scoped_lock Locked(Mutex);
  // Adopt the collector's status under the registry lock: the collector
  // only advances StatusC while holding no expectation about threads it has
  // not yet seen, so a fresh mutator owes no pending handshake response.
  M.StatusM.store(State.StatusC.load(std::memory_order_acquire),
                  std::memory_order_release);
  M.Id = NextId++;
  Mutators.push_back(&M);
}

void MutatorRegistry::remove(Mutator &M) {
  std::scoped_lock Locked(Mutex);
  auto It = std::find(Mutators.begin(), Mutators.end(), &M);
  GENGC_ASSERT(It != Mutators.end(), "removing an unregistered mutator");
  Mutators.erase(It);
}

size_t MutatorRegistry::size() const {
  std::scoped_lock Locked(Mutex);
  return Mutators.size();
}
