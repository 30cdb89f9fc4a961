#include "core/wait_word.hpp"

#include "arch/cpu.hpp"
#include "core/wait_table.hpp"

namespace lwt::core {

namespace {

/// Pre-suspend spin budget; matches the FEB/join backoff discipline.
constexpr int kWordSpin = 64;

template <typename V>
struct WordCtx {
    const std::atomic<V>* word;
    V expected;
};

template <typename V>
bool word_still_blocked(void* c) {
    auto* ctx = static_cast<WordCtx<V>*>(c);
    return ctx->word->load(std::memory_order_acquire) == ctx->expected;
}

template <typename V>
void wait_on_word_impl(const std::atomic<V>& word, V expected) noexcept {
    for (int i = 0; i < kWordSpin; ++i) {
        if (word.load(std::memory_order_acquire) != expected) {
            return;
        }
        arch::cpu_relax();
    }
    WordCtx<V> ctx{&word, expected};
    while (word.load(std::memory_order_acquire) == expected) {
        WaitTable::instance().park_if(&word, &word_still_blocked<V>, &ctx);
    }
}

}  // namespace

void wait_on_word(const std::atomic<std::uint64_t>& word,
                  std::uint64_t expected) noexcept {
    wait_on_word_impl(word, expected);
}

void wait_on_word(const std::atomic<std::uint32_t>& word,
                  std::uint32_t expected) noexcept {
    wait_on_word_impl(word, expected);
}

std::size_t wake_word_one(const void* addr) noexcept {
    return WaitTable::instance().unpark(addr, 1);
}

std::size_t wake_word_all(const void* addr) noexcept {
    return WaitTable::instance().unpark(addr);
}

}  // namespace lwt::core
