#include "core/stream_dir.hpp"

#include <algorithm>
#include <mutex>

namespace lwt::core {

namespace {
std::atomic<bool> g_watchdog_armed{false};
}  // namespace

bool watchdog_armed() noexcept {
    return g_watchdog_armed.load(std::memory_order_relaxed);
}

void set_watchdog_armed(bool armed) noexcept {
    g_watchdog_armed.store(armed, std::memory_order_relaxed);
}

StreamDirectory& StreamDirectory::instance() {
    static StreamDirectory dir;
    return dir;
}

void StreamDirectory::add(XStream* stream) {
    std::lock_guard guard(lock_);
    streams_.push_back(stream);
}

void StreamDirectory::remove(XStream* stream) {
    std::lock_guard guard(lock_);
    streams_.erase(std::remove(streams_.begin(), streams_.end(), stream),
                   streams_.end());
}

void StreamDirectory::for_each(
    const std::function<void(XStream&)>& fn) const {
    std::lock_guard guard(lock_);
    for (XStream* s : streams_) {
        fn(*s);
    }
}

}  // namespace lwt::core
