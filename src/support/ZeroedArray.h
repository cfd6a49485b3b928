//===- support/ZeroedArray.h - Arrays mapped from zero pages ----*- C++ -*-===//
//
// Part of the gengc project (PLDI 2000 generational on-the-fly GC repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-size arrays of atomics that live in an anonymous private mapping.
/// The kernel hands out such memory as zero pages and commits a page only
/// when the program first touches it, so mapping the 32 MB arena or a 2 MB
/// side table writes nothing: resident memory follows what the heap uses,
/// as the paper's JVM grew its heap from 1 MB toward its 32 MB maximum.
///
/// The elements are never constructed; the static_assert below is what
/// makes the all-zero bytes of a fresh page read as value 0.  Each array
/// ends exactly at a PROT_NONE guard page, so an index one past the end
/// faults in every build (the bounds asserts of the tables catch the rest).
///
/// Not calloc: glibc raises its dynamic mmap threshold after large frees,
/// so a later calloc of a 2 MiB table can be served from the brk heap and
/// cleared with memset, committing every page.
///
//===----------------------------------------------------------------------===//

#ifndef GENGC_SUPPORT_ZEROEDARRAY_H
#define GENGC_SUPPORT_ZEROEDARRAY_H

#include <cstddef>

namespace gengc {

/// Owns an anonymous private mapping of zero bytes that ends at a guard
/// page.
class ZeroedPages {
public:
  /// Maps \p Bytes zero bytes followed directly by a PROT_NONE page.
  /// Fatal if the kernel refuses the mapping.
  explicit ZeroedPages(size_t Bytes);
  ~ZeroedPages();

  ZeroedPages(const ZeroedPages &) = delete;
  ZeroedPages &operator=(const ZeroedPages &) = delete;

  /// First of the \p Bytes mapped bytes.
  void *data() const { return Base; }

private:
  void *Mapping;
  size_t MappedBytes;
  void *Base;
};

/// \p Count atomics, all zero, committed page by page on first touch.
template <typename Atomic> class ZeroedArray {
  static_assert(Atomic::is_always_lock_free &&
                    sizeof(Atomic) == sizeof(typename Atomic::value_type),
                "a zero page must read as atomics holding 0");

public:
  explicit ZeroedArray(size_t Count) : Pages(Count * sizeof(Atomic)) {}

  Atomic &operator[](size_t Index) { return data()[Index]; }
  const Atomic &operator[](size_t Index) const { return data()[Index]; }

  /// Base address of the elements.
  Atomic *data() const { return static_cast<Atomic *>(Pages.data()); }

private:
  ZeroedPages Pages;
};

} // namespace gengc

#endif // GENGC_SUPPORT_ZEROEDARRAY_H
