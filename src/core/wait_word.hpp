// wait_word.hpp — futex-shaped blocking on any atomic word.
//
// wait_on_word(word, expected) blocks the caller while `word == expected`:
// a brief spin first (most handoffs resolve in nanoseconds), then a
// suspend through core::WaitTable keyed by the word's address — a ULT
// yields its stream, an OS thread parks. wake_word_one/all wake parked
// waiters after the word has been changed.
//
// This is the same contract as Linux futex / C++26 atomic wait: the waker
// MUST modify the word before waking (the waiter re-validates under the
// wait-shard lock, so a wake issued after the store is never lost), and
// waking a stale address after the word itself has died is harmless — the
// table compares the key only as a value.
//
// qth::FebTable blocks through the same table, which is what makes a
// Qthreads FEB word "just" a wait_on_word with an external full/empty bit.
#pragma once

#include <atomic>
#include <cstdint>

namespace lwt::core {

/// Block while `word.load(acquire) == expected`. Returns as soon as a
/// different value is observed (possibly immediately). Spurious returns
/// are allowed; callers loop on their predicate.
void wait_on_word(const std::atomic<std::uint64_t>& word,
                  std::uint64_t expected) noexcept;
void wait_on_word(const std::atomic<std::uint32_t>& word,
                  std::uint32_t expected) noexcept;

/// Wake one / all waiters parked on `addr` (the address of the atomic
/// passed to wait_on_word). Returns the number of waiters woken. Store the
/// new value BEFORE calling.
std::size_t wake_word_one(const void* addr) noexcept;
std::size_t wake_word_all(const void* addr) noexcept;

}  // namespace lwt::core
