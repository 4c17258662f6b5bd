#include "mem/cache.hh"

#include "common/log.hh"
#include "common/state_buffer.hh"

namespace hs {

namespace {

bool
isPowerOfTwo(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

int
log2Exact(uint64_t v)
{
    int shift = 0;
    while ((uint64_t{1} << shift) < v)
        ++shift;
    return shift;
}

} // namespace

Cache::Cache(const CacheParams &params) : params_(params)
{
    if (!isPowerOfTwo(params.sizeBytes) ||
        !isPowerOfTwo(static_cast<uint64_t>(params.lineBytes))) {
        fatal("cache '%s': size and line size must be powers of two",
              params.name.c_str());
    }
    if (params.assoc < 1)
        fatal("cache '%s': associativity must be >= 1",
              params.name.c_str());
    uint64_t num_lines = params.sizeBytes /
                         static_cast<uint64_t>(params.lineBytes);
    if (num_lines % static_cast<uint64_t>(params.assoc) != 0)
        fatal("cache '%s': lines not divisible by associativity",
              params.name.c_str());
    numSets_ = static_cast<int>(num_lines /
                                static_cast<uint64_t>(params.assoc));
    if (!isPowerOfTwo(static_cast<uint64_t>(numSets_)))
        fatal("cache '%s': number of sets must be a power of two",
              params.name.c_str());
    lineShift_ = log2Exact(static_cast<uint64_t>(params.lineBytes));
    lines_.resize(static_cast<size_t>(numSets_) *
                  static_cast<size_t>(params.assoc));
}

Addr
Cache::lineAddr(Addr addr) const
{
    return addr >> lineShift_;
}

int
Cache::setIndex(Addr addr) const
{
    return static_cast<int>(lineAddr(addr) &
                            static_cast<Addr>(numSets_ - 1));
}

Addr
Cache::tagOf(Addr addr) const
{
    return lineAddr(addr) / static_cast<Addr>(numSets_);
}

Cache::Line *
Cache::selectVictim(Line *base)
{
    // Invalid ways always win.
    for (int way = 0; way < params_.assoc; ++way) {
        if (!base[way].valid)
            return &base[way];
    }
    switch (params_.replacement) {
      case ReplacementPolicy::Lru:
      case ReplacementPolicy::Fifo: {
        Line *victim = &base[0];
        for (int way = 1; way < params_.assoc; ++way) {
            if (base[way].lruStamp < victim->lruStamp)
                victim = &base[way];
        }
        return victim;
      }
      case ReplacementPolicy::Random: {
        // 16-bit Fibonacci LFSR: deterministic pseudo-random way.
        uint32_t bit = ((lfsr_ >> 0) ^ (lfsr_ >> 2) ^ (lfsr_ >> 3) ^
                        (lfsr_ >> 5)) & 1u;
        lfsr_ = (lfsr_ >> 1) | (bit << 15);
        return &base[lfsr_ % static_cast<uint32_t>(params_.assoc)];
      }
      default:
        panic("cache '%s': bad replacement policy",
              params_.name.c_str());
    }
}

Cache::AccessOutcome
Cache::access(Addr addr, bool is_write)
{
    AccessOutcome out;
    int set = setIndex(addr);
    Addr tag = tagOf(addr);
    Line *base = &lines_[static_cast<size_t>(set) *
                         static_cast<size_t>(params_.assoc)];
    ++lruClock_;

    for (int way = 0; way < params_.assoc; ++way) {
        Line &line = base[way];
        if (line.valid && line.tag == tag) {
            ++hits_;
            out.hit = true;
            if (params_.replacement == ReplacementPolicy::Lru)
                line.lruStamp = lruClock_; // FIFO keeps the fill stamp
            line.dirty = line.dirty || is_write;
            return out;
        }
    }
    Line *victim = selectVictim(base);

    ++misses_;
    if (victim->valid && victim->dirty) {
        ++writebacks_;
        out.writeback = true;
        out.victimAddr = (victim->tag * static_cast<Addr>(numSets_) +
                          static_cast<Addr>(set))
                         << lineShift_;
    }
    victim->valid = true;
    victim->dirty = is_write;
    victim->tag = tag;
    victim->lruStamp = lruClock_;
    return out;
}

bool
Cache::probe(Addr addr) const
{
    int set = setIndex(addr);
    Addr tag = tagOf(addr);
    const Line *base = &lines_[static_cast<size_t>(set) *
                               static_cast<size_t>(params_.assoc)];
    for (int way = 0; way < params_.assoc; ++way) {
        if (base[way].valid && base[way].tag == tag)
            return true;
    }
    return false;
}

void
Cache::flush()
{
    for (Line &line : lines_)
        line = Line{};
}

bool
Cache::invalidate(Addr addr)
{
    int set = setIndex(addr);
    Addr tag = tagOf(addr);
    Line *base = &lines_[static_cast<size_t>(set) *
                         static_cast<size_t>(params_.assoc)];
    for (int way = 0; way < params_.assoc; ++way) {
        if (base[way].valid && base[way].tag == tag) {
            base[way] = Line{};
            return true;
        }
    }
    return false;
}

template <class IO>
void
Cache::serialize(IO &io)
{
    io.tag(stateTag("CACH"), "Cache");
    io.value(lruClock_);
    io.value(lfsr_);
    io.value(hits_);
    io.value(misses_);
    io.value(writebacks_);
    io.table(lines_, "cache line count");
}

template void Cache::serialize(StateWriter &);
template void Cache::serialize(StateReader &);

} // namespace hs
