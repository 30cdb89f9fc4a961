#include "core/trace.hpp"

#include <algorithm>

#include "arch/cpu.hpp"
#include "arch/telemetry.hpp"

namespace lwt::core {
namespace {

thread_local std::uint32_t tl_stream_rank = kNoStream;

}  // namespace

void set_this_thread_stream(std::uint32_t rank) noexcept {
    tl_stream_rank = rank;
}

std::uint32_t this_thread_stream() noexcept { return tl_stream_rank; }

std::string_view trace_event_name(TraceEvent e) {
    switch (e) {
        case TraceEvent::kCreate: return "create";
        case TraceEvent::kStart: return "start";
        case TraceEvent::kYield: return "yield";
        case TraceEvent::kBlock: return "block";
        case TraceEvent::kWake: return "wake";
        case TraceEvent::kFinish: return "finish";
        case TraceEvent::kStall: return "stall";
    }
    return "?";
}

Tracer& Tracer::instance() {
    static Tracer tracer;
    return tracer;
}

Tracer::Ring& Tracer::ring_for_this_thread() {
    std::atomic<void*>& ring = arch::telemetry::this_shard().trace_ring;
    if (ring.load(std::memory_order_relaxed) == nullptr) {
        ring.store(new Ring, std::memory_order_release);  // kept by the shard
    }
    return *static_cast<Ring*>(ring.load(std::memory_order_relaxed));
}

template <typename Fn>
void Tracer::for_each_ring(Fn fn) {
    arch::telemetry::for_each_shard([&fn](const arch::telemetry::Shard& s) {
        if (void* ring = s.trace_ring.load(std::memory_order_acquire)) {
            fn(*static_cast<Ring*>(ring));
        }
    });
}

void Tracer::record_slow(TraceEvent event, const void* unit) {
    Ring& ring = ring_for_this_thread();
    // Single writer per ring (it is thread-local), so the index claim and
    // the seqlock stores never contend; fetch_add stays for clarity.
    const std::uint64_t idx =
        ring.next.fetch_add(1, std::memory_order_relaxed);
    Slot& slot = ring.slots[idx % kRingCapacity];
    const std::uint32_t seq = slot.seq.load(std::memory_order_relaxed);
    slot.seq.store(seq + 1, std::memory_order_relaxed);  // odd: in flight
    slot.tsc.store(arch::rdtsc(), std::memory_order_relaxed);
    slot.unit.store(unit, std::memory_order_relaxed);
    slot.event.store(static_cast<std::uint8_t>(event),
                     std::memory_order_relaxed);
    slot.stream.store(tl_stream_rank, std::memory_order_relaxed);
    slot.seq.store(seq + 2, std::memory_order_release);  // even: published
}

bool Tracer::read_slot(const Slot& slot, TraceRecord& out) noexcept {
    const std::uint32_t s1 = slot.seq.load(std::memory_order_acquire);
    if ((s1 & 1u) != 0) {
        return false;  // writer mid-flight
    }
    out.tsc = slot.tsc.load(std::memory_order_relaxed);
    out.unit = slot.unit.load(std::memory_order_relaxed);
    out.event =
        static_cast<TraceEvent>(slot.event.load(std::memory_order_relaxed));
    out.stream = slot.stream.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    return slot.seq.load(std::memory_order_relaxed) == s1;
}

TraceStats Tracer::stats() const {
    TraceStats out;
    for_each_ring([&out](const Ring& ring) {
        const std::uint64_t next = ring.next.load(std::memory_order_acquire);
        const std::uint64_t n = std::min<std::uint64_t>(next, kRingCapacity);
        out.dropped += next > kRingCapacity ? next - kRingCapacity : 0;
        for (std::uint64_t i = 0; i < n; ++i) {
            TraceRecord rec;
            if (read_slot(ring.slots[i], rec)) {
                ++out.counts[static_cast<std::size_t>(rec.event)];
            }
        }
    });
    return out;
}

std::vector<TraceRecord> Tracer::snapshot() const {
    std::vector<TraceRecord> out;
    for_each_ring([&out](const Ring& ring) {
        const std::uint64_t n = std::min<std::uint64_t>(
            ring.next.load(std::memory_order_acquire), kRingCapacity);
        out.reserve(out.size() + n);
        for (std::uint64_t i = 0; i < n; ++i) {
            TraceRecord rec;
            if (read_slot(ring.slots[i], rec)) {
                out.push_back(rec);
            }
        }
    });
    // Stable sort: records were appended per-ring in program order, so
    // equal timestamps (coarse counters; rdtsc()==0 on non-x86 builds)
    // keep their within-thread order instead of being shuffled.
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceRecord& a, const TraceRecord& b) {
                         return a.tsc < b.tsc;
                     });
    return out;
}

void Tracer::clear() {
    // Resetting `next` also zeroes the derived dropped count.
    for_each_ring(
        [](Ring& ring) { ring.next.store(0, std::memory_order_release); });
}

}  // namespace lwt::core
