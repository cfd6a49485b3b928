//===- core/Runtime.h - Public embedding API --------------------*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one-stop public API.  A Runtime bundles the heap, the shared
/// collector state, the mutator registry, the global roots and a collector
/// (generational, the DLG baseline or the STW comparator), wires the
/// allocation back-pressure, and starts the collector thread.
///
/// Typical embedding:
/// \code
///   gengc::RuntimeConfig Config;                 // 32 MB heap, 16 B cards,
///   gengc::Runtime RT(Config);                   // generational collector
///
///   auto M = RT.attachMutator();                 // per program thread
///   gengc::ObjectRef Node = M->allocate(/*RefSlots=*/2, /*DataBytes=*/16);
///   size_t Slot = M->pushRoot(Node);             // keep it alive
///   M->writeRef(Node, 0, OtherNode);             // barriered update
///   M->cooperate();                              // call regularly
///   M->popRoots();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_CORE_RUNTIME_H
#define GENGC_CORE_RUNTIME_H

#include <memory>
#include <string>

#include "gc/Collector.h"
#include "gc/GenerationalCollector.h"
#include "heap/Heap.h"
#include "obs/GcObserver.h"
#include "obs/Metrics.h"
#include "obs/TraceExport.h"
#include "runtime/Mutator.h"
#include "runtime/MutatorRegistry.h"
#include "runtime/Roots.h"

namespace gengc {

/// Which collector the runtime should run.
enum class CollectorChoice : uint8_t {
  /// The paper's generational on-the-fly collector.
  Generational,
  /// The non-generational DLG baseline (with the Remark 5.1 toggle).
  NonGenerational,
  /// A classic stop-the-world mark-sweep — NOT in the paper; a comparator
  /// for pause-time studies (a Collector constructed with StopsTheWorld;
  /// see gc/Collector.h).
  StopTheWorld,
};

/// Everything configurable about a Runtime.
struct RuntimeConfig {
  HeapConfig Heap;
  CollectorConfig Collector;
  CollectorChoice Choice = CollectorChoice::Generational;

  /// Out-of-memory policy installed into every mutator attachMutator
  /// creates: the retry budget, the emergency cache-flush point, and the
  /// optional last-resort OomHandler (see runtime/Mutator.h).
  OomConfig Oom;

  /// Start the collector thread in the constructor.  Tests that drive
  /// cycles manually can defer via start().
  bool StartCollector = true;

  /// Checks the configuration for internal consistency: heap-vs-card-vs-
  /// block-size geometry, GC thread bounds, aging/remembered-set
  /// combinations.  \returns an empty string when valid, otherwise a
  /// description of the first problem found.  The Runtime constructor
  /// calls this and aborts with the message on an invalid configuration.
  std::string validate() const;
};

/// An embedded GC runtime: heap + collector + registries.
class Runtime {
public:
  explicit Runtime(const RuntimeConfig &Config);
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// Registers the calling thread as a mutator.  The returned object must
  /// be destroyed on the same thread, before the Runtime.
  std::unique_ptr<Mutator> attachMutator();

  /// Starts the collector thread if it is not running yet.
  void startCollector() { Gc->start(); }

  Heap &heap() { return TheHeap; }
  const Heap &heap() const { return TheHeap; }
  GlobalRoots &globalRoots() { return Roots; }
  Collector &collector() { return *Gc; }
  CollectorState &state() { return State; }
  MutatorRegistry &registry() { return Registry; }
  const RuntimeConfig &config() const { return Config; }

  /// Snapshot of the collector's statistics.
  GcRunStats gcStats() const { return Gc->statsSnapshot(); }

  //===-- Observability ---------------------------------------------------===

  /// Builds a point-in-time metrics snapshot: per-kind cycle aggregates,
  /// the always-on latency histograms (allocation stalls, STW pauses,
  /// handshake response latency) and heap gauges.  Cheap enough to poll.
  MetricsSnapshot metrics() const;

  /// Registers \p Observer for a callback after every completed collection
  /// cycle (see obs/GcObserver.h for the threading contract).
  void addGcObserver(GcObserver &Observer) { Gc->addObserver(Observer); }

  /// Deregisters \p Observer.
  void removeGcObserver(GcObserver &Observer) {
    Gc->removeObserver(Observer);
  }

  /// The event-ring registry (Collector.Obs.Tracing gates whether rings
  /// exist and record).
  ObsRegistry &obs() { return Gc->obs(); }

  /// Merged, timestamp-sorted copy of all recorded events; empty with
  /// tracing off.  Feed it to writeChromeTrace / writeJsonLines.
  TraceSnapshot traceSnapshot() const { return TraceSnapshot::of(Gc->obs()); }

private:
  RuntimeConfig Config;
  Heap TheHeap;
  CollectorState State;
  MutatorRegistry Registry;
  GlobalRoots Roots;
  std::unique_ptr<Collector> Gc;
};

} // namespace gengc

#endif // GENGC_CORE_RUNTIME_H
