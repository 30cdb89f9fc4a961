#include "gol/gol.hpp"

#include "core/runtime.hpp"
#include "core/ult.hpp"
#include "core/unit_cache.hpp"

namespace lwt::gol {

Library::Library(Config config) : config_(config) {
    const std::size_t n =
        core::Runtime::resolve_stream_count(config_.num_threads);
    config_.num_threads = n;
    // One global queue, no locality routing: a single depot domain.
    core::unit_cache_configure_domains(1);
    // Every scheduler thread pops the same global queue.
    for (std::size_t i = 0; i < n; ++i) {
        threads_.push_back(std::make_unique<core::XStream>(
            static_cast<unsigned>(i),
            std::make_unique<core::Scheduler>(
                std::vector<core::Pool*>{&global_})));
        threads_.back()->start();
    }
    introspect_.emplace();
}

Library::~Library() {
    introspect_.reset();
    for (auto& t : threads_) {
        t->stop_and_join();
    }
}

void Library::go(core::UniqueFunction fn) {
    auto* g = new core::Ult(std::move(fn));
    g->detached = true;  // goroutines have no join handle
    global_.push(g);
}

void Library::go_bulk(std::size_t n,
                      const std::function<void(std::size_t)>& body) {
    if (n == 0) {
        return;
    }
    auto shared =
        std::make_shared<const std::function<void(std::size_t)>>(body);
    std::vector<core::WorkUnit*> batch;
    batch.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        auto* g = new core::Ult([shared, i] { (*shared)(i); });
        g->detached = true;
        batch.push_back(g);
    }
    global_.push_bulk(batch);
}

}  // namespace lwt::gol
