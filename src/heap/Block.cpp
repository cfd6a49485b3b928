//===- heap/Block.cpp - 64 KiB block descriptors --------------------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "heap/Block.h"

using namespace gengc;

const char *gengc::blockStateName(BlockState State) {
  switch (State) {
  case BlockState::Free:
    return "free";
  case BlockState::Reserved:
    return "reserved";
  case BlockState::SizeClass:
    return "size-class";
  case BlockState::LargeStart:
    return "large-start";
  case BlockState::LargeCont:
    return "large-cont";
  }
  return "invalid";
}
