//===- obs/Event.cpp - Event vocabulary names and observer anchor ---------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "obs/Event.h"
#include "obs/GcObserver.h"

using namespace gengc;

GcObserver::~GcObserver() = default;

const char *gengc::obsSourceName(ObsSource Source) {
  switch (Source) {
  case ObsSource::Collector:
    return "collector";
  case ObsSource::GcLane:
    return "gc-lane";
  case ObsSource::Mutator:
    return "mutator";
  }
  return "invalid";
}

const char *gengc::obsEventKindName(ObsEventKind Kind) {
  switch (Kind) {
  case ObsEventKind::CycleBegin:
    return "CycleBegin";
  case ObsEventKind::CycleEnd:
    return "CycleEnd";
  case ObsEventKind::Phase:
    return "Phase";
  case ObsEventKind::HandshakeReq:
    return "HandshakeReq";
  case ObsEventKind::HandshakeAck:
    return "HandshakeAck";
  case ObsEventKind::AllocStall:
    return "AllocStall";
  case ObsEventKind::TraceSpan:
    return "TraceSpan";
  case ObsEventKind::TraceSteal:
    return "TraceSteal";
  case ObsEventKind::SweepSpan:
    return "SweepSpan";
  case ObsEventKind::SweepChunk:
    return "SweepChunk";
  case ObsEventKind::CardChunkOpen:
    return "CardChunkOpen";
  case ObsEventKind::OomEscalation:
    return "OomEscalation";
  case ObsEventKind::WatchdogFire:
    return "WatchdogFire";
  case ObsEventKind::VerifyPass:
    return "VerifyPass";
  case ObsEventKind::ListContention:
    return "ListContention";
  case ObsEventKind::CycleAbort:
    return "CycleAbort";
  case ObsEventKind::DegradedMode:
    return "DegradedMode";
  case ObsEventKind::EscalationStep:
    return "EscalationStep";
  }
  return "invalid";
}
