#include "trace/tracer.hh"

#include "common/state_buffer.hh"

namespace hs {

Tracer::Tracer(size_t capacity)
{
    if (capacity == 0)
        fatal("Tracer: capacity must be positive");
    ring_.reserve(capacity);
}

void
Tracer::exportTo(std::vector<TraceEvent> &out) const
{
    out.reserve(out.size() + ring_.size());
    for (size_t i = 0; i < ring_.size(); ++i)
        out.push_back(ring_[i]);
}

void
Tracer::clear()
{
    ring_.clear();
    emitted_ = 0;
    dropped_ = 0;
}

void
Tracer::dropCategory(TraceCategory cat)
{
    size_t n = ring_.size();
    size_t removed = 0;
    for (size_t i = 0; i < n; ++i) {
        TraceEvent e = ring_.front();
        ring_.pop_front();
        if (e.cat == cat)
            ++removed;
        else
            ring_.push_back(e);
    }
    emitted_ -= removed;
}

template <class IO>
void
Tracer::serialize(IO &io)
{
    io.tag(stateTag("TRCE"), "Tracer state");
    io.echo(static_cast<uint64_t>(ring_.capacity()), "tracer capacity");
    io.value(emitted_);
    io.value(dropped_);
    // Events go field by field (30 bytes each, the padding left out).
    uint64_t n = ring_.size();
    io.count(n, 30);
    if constexpr (IO::kReading) {
        if (n > ring_.capacity())
            fatal("Tracer: %llu events do not fit a ring of %zu",
                  static_cast<unsigned long long>(n), ring_.capacity());
        ring_.clear();
        for (uint64_t i = 0; i < n; ++i)
            ring_.push_back(TraceEvent{});
    }
    for (size_t i = 0; i < ring_.size(); ++i) {
        TraceEvent &e = ring_[i];
        io.value(e.cycle);
        io.value(e.value);
        io.value(e.arg);
        io.value(e.thread);
        io.enumerated(e.cat, TraceCategory::Episode, "trace category");
        io.enumerated(e.kind, TraceKind::EpisodeEnd, "trace kind");
        io.value(e.block);
        io.value(e.core);
    }
}

template void Tracer::serialize(StateWriter &);
template void Tracer::serialize(StateReader &);

} // namespace hs
