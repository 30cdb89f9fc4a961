#include "arch/audit.hpp"

#include "arch/settings.hpp"

namespace lwt::arch::audit {

namespace detail {

bool enabled_slow() noexcept {
    ensure_settings_loaded();  // publishes Settings::create_audit
    return cached_flag().load(std::memory_order_relaxed) > 0;
}

}  // namespace detail

void force_enable(bool on) noexcept {
    detail::cached_flag().store(on ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace lwt::arch::audit
