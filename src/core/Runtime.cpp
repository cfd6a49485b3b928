//===- core/Runtime.cpp - Public embedding API ------------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "support/MathExtras.h"

using namespace gengc;

std::string RuntimeConfig::validate() const {
  // Heap geometry: the arena is carved into fixed 64 KiB blocks.
  if (Heap.HeapBytes < 2 * Heap::BlockBytes)
    return "HeapBytes must be at least two blocks (128 KiB): block 0 is "
           "reserved for the null reference";
  if (Heap.HeapBytes % Heap::BlockBytes != 0)
    return "HeapBytes must be a multiple of the 64 KiB block size";

  // Card geometry (Section 8.5.3 evaluates 16..4096).
  if (!isPowerOf2(uint64_t(Heap.CardBytes)))
    return "CardBytes must be a power of two";
  if (Heap.CardBytes < 16 || Heap.CardBytes > 4096)
    return "CardBytes must be in [16, 4096]";
  if (uint64_t(Heap.CardBytes) > Heap::BlockBytes)
    return "CardBytes must not exceed the 64 KiB block size";

  if (Heap.ChainCells == 0)
    return "ChainCells must be positive (free memory moves in chains)";

  if (Heap.RefillBatchMax < 1)
    return "RefillBatchMax must be at least 1 (1 disables batched refill)";

  // Trigger thresholds.  Values LARGER than the heap are deliberately
  // legal: "YoungBytes = 1 TB" / "FullFraction > 1" is the idiom for
  // disabling automatic triggering (tests drive cycles manually).  Only
  // degenerate values that would trigger a cycle on every allocation are
  // rejected.
  if (Collector.Trigger.YoungBytes == 0)
    return "Trigger.YoungBytes must be positive (use a huge value to "
           "disable automatic partial cycles)";
  if (Collector.Trigger.FullFraction <= 0.0)
    return "Trigger.FullFraction must be positive (use a value above 1 to "
           "disable automatic full cycles)";

  // Worker lanes: 0 would mean no one runs the cycle; an absurd count is
  // almost certainly a unit mix-up.
  if (Collector.GcThreads < 1)
    return "GcThreads must be at least 1 (lane 0 is the collector thread)";
  if (Collector.GcThreads > 256)
    return "GcThreads above 256 is unsupported (suspect a configuration "
           "mix-up)";
  if (Collector.PrefetchDepth > Tracer::MaxPrefetchDepth)
    return "PrefetchDepth above 64 is unsupported (the trace prefetch "
           "window is bounded; 0 disables it)";

  // Generational-policy combinations (mirrors the collector's asserts, but
  // catchable before a thread is spawned).  Only checked for the
  // generational choice: fixupCollectorConfig strips Aging/RememberedSets
  // from the other collectors rather than rejecting them.
  if (Choice == CollectorChoice::Generational) {
    if (Collector.Aging && Collector.RememberedSets)
      return "Aging with RememberedSets is unsupported: remembered sets "
             "are implemented for simple promotion only (Section 3.1)";
    if (Collector.Aging && Collector.OldestAge < 2)
      return "OldestAge (the aging threshold) below 2 is meaningless with "
             "aging: objects are allocated with age 1";
  }

  if (Collector.Obs.RingEvents == 0)
    return "Obs.RingEvents must be positive when tracing can be enabled";

  // Out-of-memory ladder: zero retries would turn every transient
  // exhaustion into an instant handler call (or abort) without ever waiting
  // for the collection that would have fixed it.
  if (Oom.RetryAttempts < 1)
    return "Oom.RetryAttempts must be at least 1 (each attempt waits for "
           "one full collection)";

  // Watchdog: the Callback policy with no callback would silently swallow
  // every stall report.
  if (Collector.Watchdog.Policy == WatchdogPolicy::Callback &&
      !Collector.Watchdog.OnStall)
    return "Watchdog.Policy is Callback but Watchdog.OnStall is empty";

  // Escalate is deadline-driven: without a handshake deadline no wait ever
  // fires, so the ladder could never start, and a zero fire threshold
  // would make the very first fire force-complete the handshake.
  if (Collector.Watchdog.Policy == WatchdogPolicy::Escalate) {
    if (Collector.Watchdog.DeadlineNanos == 0)
      return "Watchdog.Policy is Escalate but Watchdog.DeadlineNanos is 0 "
             "(the escalation ladder is deadline-driven)";
    if (Collector.Watchdog.EscalateAfterFires < 1)
      return "Watchdog.EscalateAfterFires must be at least 1";
  }
  return std::string();
}

static CollectorConfig fixupCollectorConfig(const RuntimeConfig &Config) {
  CollectorConfig Fixed = Config.Collector;
  // Generation settings mean nothing without generations; drop them rather
  // than making every caller clear them for the other collectors.
  if (Config.Choice != CollectorChoice::Generational) {
    Fixed.Aging = false;
    Fixed.RememberedSets = false;
  }
  return Fixed;
}

static const HeapConfig &validatedHeapConfig(const RuntimeConfig &Config) {
  // Runs before any member is built so an invalid configuration cannot
  // construct a heap (member initializers run before the ctor body).
  std::string Error = Config.validate();
  if (!Error.empty())
    fatalError(Error.c_str(), __FILE__, __LINE__);
  return Config.Heap;
}

Runtime::Runtime(const RuntimeConfig &Config)
    : Config(Config), TheHeap(validatedHeapConfig(Config)), Registry(State),
      Roots(TheHeap, State) {
  CollectorConfig GcConfig = fixupCollectorConfig(Config);
  if (Config.Choice == CollectorChoice::Generational)
    Gc = std::make_unique<GenerationalCollector>(TheHeap, State, Registry,
                                                 Roots, GcConfig);
  else
    Gc = std::make_unique<Collector>(
        TheHeap, State, Registry, Roots, GcConfig,
        /*StopsTheWorld=*/Config.Choice == CollectorChoice::StopTheWorld);
  if (Config.StartCollector)
    Gc->start();
}

Runtime::~Runtime() {
  GENGC_ASSERT(Registry.size() == 0,
               "all mutators must detach before the runtime is destroyed");
  Gc->stop();
}

std::unique_ptr<Mutator> Runtime::attachMutator() {
  auto M = std::make_unique<Mutator>(TheHeap, State, Registry);
  M->setMemoryWaiter(Gc.get());
  M->setObsRegistry(&Gc->obs());
  M->setOomConfig(&Config.Oom);
  return M;
}

MetricsSnapshot Runtime::metrics() const {
  MetricsSnapshot M;
  M.addCycles(Gc->statsSnapshot());
  M.HeapBytes = TheHeap.heapBytes();
  const ObsRegistry &Obs = Gc->obs();
  M.EventsWritten = Obs.eventsWritten();
  M.EventsDropped = Obs.eventsDropped();
  M.StallNanos = HistogramSnapshot::of(Obs.stallHistogram());
  M.StwPauseNanos = HistogramSnapshot::of(Obs.stwPauseHistogram());
  M.HandshakeNanos = HistogramSnapshot::of(Obs.handshakeHistogram());
  M.RequestNanos = HistogramSnapshot::of(Obs.requestHistogram());
  M.AllocRefills = TheHeap.refillCount();
  M.AllocCarveFallbacks = TheHeap.carveFallbackCount();
  M.AllocShardContentions = TheHeap.listContentionCount();
  const TraceSegmentPool &SegPool = Gc->traceEngine().segmentPool();
  M.TraceSegmentsAllocated = SegPool.allocatedSegments();
  M.TraceSegmentsPooled = SegPool.pooledSegments();
  return M;
}
