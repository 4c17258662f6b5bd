#include "mem/memory.hh"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/state_buffer.hh"

namespace hs {

SparseMemory::Page *
SparseMemory::findPage(Addr addr) const
{
    auto it = pages_.find(addr / pageBytes);
    return it == pages_.end() ? nullptr : it->second.get();
}

SparseMemory::Page &
SparseMemory::touchPage(Addr addr)
{
    auto &slot = pages_[addr / pageBytes];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    return *slot;
}

uint64_t
SparseMemory::read64(Addr addr) const
{
    addr &= ~Addr{7};
    const Page *page = findPage(addr);
    if (!page)
        return 0;
    uint64_t value;
    std::memcpy(&value, page->data() + addr % pageBytes, sizeof(value));
    return value;
}

void
SparseMemory::write64(Addr addr, uint64_t value)
{
    addr &= ~Addr{7};
    Page &page = touchPage(addr);
    std::memcpy(page.data() + addr % pageBytes, &value, sizeof(value));
}

uint8_t
SparseMemory::read8(Addr addr) const
{
    const Page *page = findPage(addr);
    return page ? (*page)[addr % pageBytes] : 0;
}

void
SparseMemory::write8(Addr addr, uint8_t value)
{
    touchPage(addr)[addr % pageBytes] = value;
}

template <class IO>
void
SparseMemory::serialize(IO &io)
{
    io.tag(stateTag("SMEM"), "SparseMemory");
    std::vector<Addr> keys;
    for (const auto &[key, page] : pages_)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    uint64_t n = keys.size();
    io.count(n, sizeof(Addr) + pageBytes);
    if constexpr (IO::kReading) {
        pages_.clear();
        pages_.reserve(static_cast<size_t>(n));
        keys.resize(static_cast<size_t>(n));
    }
    for (Addr &key : keys) {
        io.value(key);
        std::unique_ptr<Page> &page = pages_[key];
        if constexpr (IO::kReading)
            page = std::make_unique<Page>();
        io.bytes(page->data(), pageBytes);
    }
}

template void SparseMemory::serialize(StateWriter &);
template void SparseMemory::serialize(StateReader &);

} // namespace hs
