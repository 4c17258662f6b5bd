/**
 * @file
 * Sparse functional backing store for simulated thread data.
 *
 * The caches in this library are timing/energy models over tags only;
 * actual data values live here. Memory is allocated in 4 KB pages on
 * first touch and reads of untouched memory return zero, so synthetic
 * workloads with large footprints cost only the pages they touch.
 */

#ifndef HS_MEM_MEMORY_HH
#define HS_MEM_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/types.hh"

namespace hs {

/** Byte-addressable sparse memory with 64-bit accessors. */
class SparseMemory
{
  public:
    static constexpr Addr pageBytes = 4096;

    /** Read the aligned 64-bit word containing @p addr (low 3 bits
     *  ignored); untouched memory reads as zero. */
    uint64_t read64(Addr addr) const;

    /** Write a 64-bit word at @p addr (low 3 bits ignored). */
    void write64(Addr addr, uint64_t value);

    /** Read a single byte. */
    uint8_t read8(Addr addr) const;

    /** Write a single byte. */
    void write8(Addr addr, uint8_t value);

    /** Drop all allocated pages. */
    void clear() { pages_.clear(); }

    /** @return number of 4 KB pages currently allocated. */
    size_t allocatedPages() const { return pages_.size(); }

    /** Snapshot state: every allocated page, in ascending-address
     *  order so the bytes do not depend on hash-map iteration order.
     *  A restore replaces the contents. */
    template <class IO> void serialize(IO &io);

  private:
    using Page = std::array<uint8_t, pageBytes>;

    Page *findPage(Addr addr) const;
    Page &touchPage(Addr addr);

    std::unordered_map<Addr, std::unique_ptr<Page>> pages_;
};

} // namespace hs

#endif // HS_MEM_MEMORY_HH
