//===- support/ZeroedArray.cpp - Arrays mapped from zero pages ------------===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//

#include "support/ZeroedArray.h"

#include <sys/mman.h>
#include <unistd.h>

#include "support/Assert.h"
#include "support/MathExtras.h"

using namespace gengc;

ZeroedPages::ZeroedPages(size_t Bytes) {
  static const size_t PageBytes = size_t(sysconf(_SC_PAGESIZE));
  size_t DataBytes = alignTo(Bytes, PageBytes);
  MappedBytes = DataBytes + PageBytes;
  Mapping = mmap(nullptr, MappedBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Mapping == MAP_FAILED)
    fatalError("cannot map zeroed pages", __FILE__, __LINE__);
  unsigned char *Guard = static_cast<unsigned char *>(Mapping) + DataBytes;
  if (mprotect(Guard, PageBytes, PROT_NONE) != 0)
    fatalError("cannot protect a guard page", __FILE__, __LINE__);
  // End-aligned, so the byte after the last element is the guard page's
  // first.
  Base = Guard - Bytes;
}

ZeroedPages::~ZeroedPages() { munmap(Mapping, MappedBytes); }
