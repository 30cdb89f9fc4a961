// Randomized stress ("chaos") tests: seeded mixes of kernel operations —
// ULTs and tasklets, yields, mutexes, channels, cross-stream wakes — with
// exact conservation checks, cross-validated against the lifecycle tracer.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <random>
#include <vector>

#include "core/channel.hpp"
#include "core/pool.hpp"
#include "core/runtime.hpp"
#include "core/scheduler.hpp"
#include "core/sync_ult.hpp"
#include "core/trace.hpp"
#include "core/ult.hpp"
#include "core/xstream.hpp"

namespace {

using namespace lwt::core;

class ChaosTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChaosTest, MixedWorkloadConservesEverything) {
    const unsigned seed = GetParam();
    std::minstd_rand rng(seed);

    const int num_streams = 1 + static_cast<int>(rng() % 4);
    const int num_units = 100 + static_cast<int>(rng() % 300);

    std::vector<std::unique_ptr<DequePool>> pools;
    for (int i = 0; i < num_streams; ++i) {
        pools.push_back(std::make_unique<DequePool>(
            rng() % 2 == 0 ? DequePool::PopOrder::kFifo
                           : DequePool::PopOrder::kLifo));
    }

    Tracer::instance().clear();
    Tracer::instance().enable();

    std::atomic<long> balance{0};   // += x then -= x per unit: ends at 0
    std::atomic<int> executed{0};
    Mutex mutex;
    long guarded = 0;  // protected by `mutex`
    Channel<int> channel(64);
    std::atomic<int> channel_tokens{0};

    {
        Runtime rt(static_cast<std::size_t>(num_streams), [&](unsigned rank) {
            return std::make_unique<Scheduler>(
                std::vector<Pool*>{pools[rank].get()});
        });

        int expected_guarded = 0;
        int expected_tokens = 0;
        for (int i = 0; i < num_units; ++i) {
            const unsigned op = rng() % 5;
            const int amount = static_cast<int>(rng() % 100) + 1;
            UniqueFunction body;
            switch (op) {
                case 0:  // plain compute
                    body = [&, amount] {
                        balance.fetch_add(amount);
                        balance.fetch_sub(amount);
                        executed.fetch_add(1);
                    };
                    break;
                case 1:  // yields mid-flight (ULT only; forced below)
                    body = [&, amount] {
                        balance.fetch_add(amount);
                        if (Ult::current() != nullptr) {
                            Ult::current()->yield();
                        }
                        balance.fetch_sub(amount);
                        executed.fetch_add(1);
                    };
                    break;
                case 2:  // mutex-guarded increment
                    ++expected_guarded;
                    body = [&] {
                        mutex.lock();
                        ++guarded;
                        mutex.unlock();
                        executed.fetch_add(1);
                    };
                    break;
                case 3:  // channel producer
                    ++expected_tokens;
                    body = [&] {
                        channel.send(1);
                        channel_tokens.fetch_add(1);
                        executed.fetch_add(1);
                    };
                    break;
                default:  // short spin
                    body = [&, amount] {
                        for (int spin = 0; spin < amount * 10; ++spin) {
                            asm volatile("");
                        }
                        executed.fetch_add(1);
                    };
                    break;
            }
            WorkUnit* unit;
            // Ops that may suspend need a stack; others pick randomly.
            const bool needs_ult = op == 1 || op == 2 || op == 3;
            if (needs_ult || rng() % 2 == 0) {
                unit = new Ult(std::move(body));
            } else {
                unit = new Tasklet(std::move(body));
            }
            unit->detached = true;
            pools[static_cast<std::size_t>(rng()) % pools.size()]->push(unit);
        }

        // Main thread drains the channel while driving the primary stream.
        int received = 0;
        rt.primary().run_until([&] {
            while (channel.try_recv()) {
                ++received;
            }
            return executed.load() == num_units && received == expected_tokens;
        });

        EXPECT_EQ(executed.load(), num_units);
        EXPECT_EQ(balance.load(), 0);
        EXPECT_EQ(guarded, expected_guarded);
        EXPECT_EQ(received, expected_tokens);
        EXPECT_EQ(channel_tokens.load(), expected_tokens);
    }

    // Tracer cross-check: every created unit started and finished.
    Tracer::instance().disable();
    const TraceStats stats = Tracer::instance().stats();
    EXPECT_EQ(stats.of(TraceEvent::kCreate),
              static_cast<std::uint64_t>(num_units));
    EXPECT_EQ(stats.of(TraceEvent::kFinish),
              static_cast<std::uint64_t>(num_units));
    EXPECT_GE(stats.of(TraceEvent::kStart),
              static_cast<std::uint64_t>(num_units));
    Tracer::instance().clear();
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosTest,
                         ::testing::Values(1u, 42u, 1337u, 0xdeadbeefu,
                                           20160926u /* CLUSTER'16 */));

}  // namespace
