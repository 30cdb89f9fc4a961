#include "patterns/patterns.hpp"

#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "abt/abt.hpp"
#include "benchsupport/stats.hpp"
#include "core/channel.hpp"
#include "core/sync_ult.hpp"
#include "core/xstream.hpp"
#include "cvt/cvt.hpp"
#include "gol/gol.hpp"
#include "momp/momp.hpp"
#include "mth/mth.hpp"
#include "qth/qth.hpp"

namespace lwt::patterns {

using benchsupport::Timer;

std::string_view variant_name(Variant variant) {
    switch (variant) {
        case Variant::kPthreads: return "Pthreads";
        case Variant::kAbtUltPrivate: return "Argobots ULT (private)";
        case Variant::kAbtUltShared: return "Argobots ULT (shared)";
        case Variant::kAbtTaskletPrivate: return "Argobots Tasklet (private)";
        case Variant::kAbtTaskletShared: return "Argobots Tasklet (shared)";
        case Variant::kQthPerCpu: return "Qthreads (shep/CPU)";
        case Variant::kQthSingleShepherd: return "Qthreads (1 shep)";
        case Variant::kMthWorkFirst: return "MassiveThreads (W)";
        case Variant::kMthHelpFirst: return "MassiveThreads (H)";
        case Variant::kCvtMessages: return "Converse Threads";
        case Variant::kGolShared: return "Go";
        case Variant::kOmpGcc: return "OMP (gcc)";
        case Variant::kOmpIcc: return "OMP (icc)";
    }
    return "?";
}

const std::vector<Variant>& all_variants() {
    // LWTBENCH_VARIANTS=<substr>[,<substr>...] keeps only variants whose
    // name contains one of the (case-sensitive) substrings — e.g.
    // "Argobots ULT" or "Qthreads,Go". Unset/empty: the full paper sweep.
    // CI's join-smoke leg uses this to pin one library boot per process so
    // a metrics flush reflects exactly one variant's run.
    static const std::vector<Variant> kAll = [] {
        std::vector<Variant> all{
            Variant::kPthreads,
            Variant::kOmpGcc,         Variant::kOmpIcc,
            Variant::kAbtTaskletPrivate, Variant::kAbtUltPrivate,
            Variant::kAbtTaskletShared,  Variant::kAbtUltShared,
            Variant::kQthPerCpu,      Variant::kQthSingleShepherd,
            Variant::kMthHelpFirst,   Variant::kMthWorkFirst,
            Variant::kCvtMessages,    Variant::kGolShared,
        };
        const char* env = std::getenv("LWTBENCH_VARIANTS");
        if (env == nullptr || *env == '\0') {
            return all;
        }
        std::vector<std::string> needles;
        for (const char* p = env;;) {
            const char* comma = std::strchr(p, ',');
            needles.emplace_back(p, comma ? comma - p : std::strlen(p));
            if (comma == nullptr) {
                break;
            }
            p = comma + 1;
        }
        std::vector<Variant> kept;
        for (Variant v : all) {
            const std::string_view name = variant_name(v);
            for (const std::string& n : needles) {
                if (!n.empty() && name.find(n) != std::string_view::npos) {
                    kept.push_back(v);
                    break;
                }
            }
        }
        return kept.empty() ? all : kept;
    }();
    return kAll;
}

namespace {

/// Evenly split [0, n) into `chunks` ranges; invoke fn(chunk_idx, lo, hi).
template <typename Fn>
void split_range(std::size_t n, std::size_t chunks, Fn&& fn) {
    const std::size_t per = (n + chunks - 1) / chunks;
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t lo = c * per;
        const std::size_t hi = std::min(n, lo + per);
        if (lo >= hi) {
            break;
        }
        fn(c, lo, hi);
    }
}

// --- Argobots -----------------------------------------------------------------

class AbtRunner final : public PatternRunner {
  public:
    AbtRunner(Variant variant, std::size_t threads, abt::PoolKind pool_kind,
              bool tasklets)
        : variant_(variant), tasklets_(tasklets), lib_(make_config(threads, pool_kind)) {}

    Variant variant() const override { return variant_; }
    std::size_t threads() const override { return lib_.num_xstreams(); }

    std::pair<double, double> create_join_times(
        const std::function<void()>& body) override {
        std::vector<abt::UnitHandle> handles;
        handles.reserve(unit_count());
        Timer t;
        t.start();
        for (std::size_t i = 0; i < unit_count(); ++i) {
            handles.push_back(create(body, place(i)));
        }
        const double create_ms = t.stop_ms();
        t.start();
        for (auto& h : handles) {
            h.free();  // Argobots joins AND frees (§VI)
        }
        const double join_ms = t.stop_ms();
        return {create_ms, join_ms};
    }

    std::pair<double, double> create_join_times_bulk(
        const std::function<void()>& body) override {
        Timer t;
        t.start();
        auto handles = lib_.create_bulk(
            tasklets_ ? abt::UnitKind::kTasklet : abt::UnitKind::kUlt,
            unit_count(), [&body](std::size_t) { body(); });
        const double create_ms = t.stop_ms();
        t.start();
        lib_.join_all_free(handles);  // one EventCounter wake per batch
        const double join_ms = t.stop_ms();
        return {create_ms, join_ms};
    }

    void for_loop_bulk(std::size_t n, const ElemFn& body) override {
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        chunks.reserve(threads());
        split_range(n, threads(), [&](std::size_t, std::size_t lo, std::size_t hi) {
            chunks.emplace_back(lo, hi);
        });
        auto handles = lib_.create_bulk(
            tasklets_ ? abt::UnitKind::kTasklet : abt::UnitKind::kUlt,
            chunks.size(), [&body, &chunks](std::size_t c) {
                for (std::size_t i = chunks[c].first; i < chunks[c].second; ++i) {
                    body(i);
                }
            });
        lib_.join_all_free(handles);
    }

    void for_loop(std::size_t n, const ElemFn& body) override {
        std::vector<abt::UnitHandle> handles;
        handles.reserve(threads());
        split_range(n, threads(), [&](std::size_t c, std::size_t lo, std::size_t hi) {
            handles.push_back(create(
                [&body, lo, hi] {
                    for (std::size_t i = lo; i < hi; ++i) {
                        body(i);
                    }
                },
                place(c)));
        });
        for (auto& h : handles) {
            h.free();
        }
    }

    void task_single(std::size_t n, const ElemFn& body) override {
        std::vector<abt::UnitHandle> handles;
        handles.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
            handles.push_back(create([&body, i] { body(i); }, place(i)));
        }
        for (auto& h : handles) {
            h.free();
        }
    }

    void task_parallel(std::size_t n, const ElemFn& body) override {
        // Two steps (§VIII-B.4): step one is always ULTs (tasklets cannot
        // create-and-join); step two uses the configured unit kind.
        std::vector<abt::UnitHandle> outers;
        outers.reserve(threads());
        split_range(n, threads(), [&](std::size_t c, std::size_t lo, std::size_t hi) {
            outers.push_back(lib_.thread_create(
                [this, &body, lo, hi] {
                    std::vector<abt::UnitHandle> inner;
                    inner.reserve(hi - lo);
                    const int here = current_pool();
                    for (std::size_t i = lo; i < hi; ++i) {
                        inner.push_back(create([&body, i] { body(i); }, here));
                    }
                    for (auto& h : inner) {
                        h.free();
                    }
                },
                place(c)));
        });
        for (auto& h : outers) {
            h.free();
        }
    }

    void nested_for(std::size_t outer, std::size_t inner,
                    const Elem2Fn& body) override {
        std::vector<abt::UnitHandle> outers;
        outers.reserve(threads());
        split_range(outer, threads(),
                    [&](std::size_t c, std::size_t lo, std::size_t hi) {
            outers.push_back(lib_.thread_create(
                [this, &body, lo, hi, inner] {
                    for (std::size_t i = lo; i < hi; ++i) {
                        // Each outer iteration spawns `threads` units
                        // dividing the inner loop (§VIII-A.3).
                        std::vector<abt::UnitHandle> units;
                        units.reserve(threads());
                        split_range(inner, threads(),
                                    [&](std::size_t ic, std::size_t jlo,
                                        std::size_t jhi) {
                            units.push_back(create(
                                [&body, i, jlo, jhi] {
                                    for (std::size_t j = jlo; j < jhi; ++j) {
                                        body(i, j);
                                    }
                                },
                                place(ic)));
                        });
                        for (auto& h : units) {
                            h.free();
                        }
                    }
                },
                place(c)));
        });
        for (auto& h : outers) {
            h.free();
        }
    }

    void nested_task(std::size_t parents, std::size_t children,
                     const Elem2Fn& body) override {
        std::vector<abt::UnitHandle> outers;
        outers.reserve(parents);
        for (std::size_t p = 0; p < parents; ++p) {
            outers.push_back(lib_.thread_create(
                [this, &body, p, children] {
                    std::vector<abt::UnitHandle> kids;
                    kids.reserve(children);
                    const int here = current_pool();
                    for (std::size_t c = 0; c < children; ++c) {
                        kids.push_back(create([&body, p, c] { body(p, c); }, here));
                    }
                    for (auto& h : kids) {
                        h.free();
                    }
                },
                place(p)));
        }
        for (auto& h : outers) {
            h.free();
        }
    }

  private:
    static abt::Config make_config(std::size_t threads, abt::PoolKind kind) {
        abt::Config c;
        c.num_xstreams = threads;
        c.pool_kind = kind;
        return c;
    }

    abt::UnitHandle create(core::UniqueFunction fn, int where) {
        return tasklets_ ? lib_.task_create(std::move(fn), where)
                         : lib_.thread_create(std::move(fn), where);
    }

    /// Placement for the i-th unit: with private pools, round-robin over
    /// streams (the paper's dispatch); the shared pool ignores placement.
    int place(std::size_t i) const {
        return lib_.config().pool_kind == abt::PoolKind::kShared
                   ? 0
                   : static_cast<int>(i % lib_.num_pools());
    }

    int current_pool() const {
        if (lib_.config().pool_kind == abt::PoolKind::kShared) {
            return 0;
        }
        core::XStream* s = core::XStream::current();
        return s != nullptr ? static_cast<int>(s->rank()) : 0;
    }

    Variant variant_;
    bool tasklets_;
    mutable abt::Library lib_;
};

// --- Qthreads ------------------------------------------------------------------

class QthRunner final : public PatternRunner {
  public:
    QthRunner(Variant variant, std::size_t threads, bool per_cpu)
        : variant_(variant), lib_(make_config(threads, per_cpu)),
          threads_(threads) {}

    Variant variant() const override { return variant_; }
    std::size_t threads() const override { return threads_; }

    std::pair<double, double> create_join_times(
        const std::function<void()>& body) override {
        std::vector<qth::aligned_t> rets(unit_count(), 0);
        Timer t;
        t.start();
        for (std::size_t i = 0; i < unit_count(); ++i) {
            lib_.fork_to([&body] { body(); }, &rets[i],
                         i % lib_.num_shepherds());
        }
        const double create_ms = t.stop_ms();
        t.start();
        for (auto& r : rets) {
            lib_.read_ff(&r);  // the Qthreads join (§VI)
        }
        const double join_ms = t.stop_ms();
        return {create_ms, join_ms};
    }

    std::pair<double, double> create_join_times_bulk(
        const std::function<void()>& body) override {
        qth::Sinc sinc;
        Timer t;
        t.start();
        lib_.fork_bulk(unit_count(), [&body](std::size_t) { body(); }, sinc);
        const double create_ms = t.stop_ms();
        t.start();
        sinc.wait();  // the qt_sinc aggregate join
        const double join_ms = t.stop_ms();
        return {create_ms, join_ms};
    }

    void for_loop_bulk(std::size_t n, const ElemFn& body) override {
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        chunks.reserve(threads_);
        split_range(n, threads_, [&](std::size_t, std::size_t lo, std::size_t hi) {
            chunks.emplace_back(lo, hi);
        });
        qth::Sinc sinc;
        lib_.fork_bulk(
            chunks.size(),
            [&body, &chunks](std::size_t c) {
                for (std::size_t i = chunks[c].first; i < chunks[c].second; ++i) {
                    body(i);
                }
            },
            sinc);
        sinc.wait();
    }

    void for_loop(std::size_t n, const ElemFn& body) override {
        std::vector<qth::aligned_t> rets(threads_, 0);
        std::size_t used = 0;
        split_range(n, threads_, [&](std::size_t c, std::size_t lo, std::size_t hi) {
            lib_.fork_to(
                [&body, lo, hi] {
                    for (std::size_t i = lo; i < hi; ++i) {
                        body(i);
                    }
                },
                &rets[c], c % lib_.num_shepherds());
            ++used;
        });
        for (std::size_t c = 0; c < used; ++c) {
            lib_.read_ff(&rets[c]);
        }
    }

    void task_single(std::size_t n, const ElemFn& body) override {
        std::vector<qth::aligned_t> rets(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
            lib_.fork_to([&body, i] { body(i); }, &rets[i],
                         i % lib_.num_shepherds());
        }
        for (auto& r : rets) {
            lib_.read_ff(&r);
        }
    }

    void task_parallel(std::size_t n, const ElemFn& body) override {
        std::vector<qth::aligned_t> outer(threads_, 0);
        std::size_t used = 0;
        split_range(n, threads_, [&](std::size_t c, std::size_t lo, std::size_t hi) {
            lib_.fork_to(
                [this, &body, lo, hi] {
                    // Second step: each ULT forks its own tasks into its
                    // current shepherd's queue (plain fork).
                    std::vector<qth::aligned_t> inner(hi - lo, 0);
                    for (std::size_t i = lo; i < hi; ++i) {
                        lib_.fork([&body, i] { body(i); }, &inner[i - lo]);
                    }
                    for (auto& r : inner) {
                        lib_.read_ff(&r);
                    }
                },
                &outer[c], c % lib_.num_shepherds());
            ++used;
        });
        for (std::size_t c = 0; c < used; ++c) {
            lib_.read_ff(&outer[c]);
        }
    }

    void nested_for(std::size_t outer_n, std::size_t inner_n,
                    const Elem2Fn& body) override {
        std::vector<qth::aligned_t> outer(threads_, 0);
        std::size_t used = 0;
        split_range(outer_n, threads_,
                    [&](std::size_t c, std::size_t lo, std::size_t hi) {
            lib_.fork_to(
                [this, &body, lo, hi, inner_n] {
                    for (std::size_t i = lo; i < hi; ++i) {
                        std::vector<qth::aligned_t> units(threads_, 0);
                        std::size_t iu = 0;
                        split_range(inner_n, threads_,
                                    [&](std::size_t ic, std::size_t jlo,
                                        std::size_t jhi) {
                            lib_.fork_to(
                                [&body, i, jlo, jhi] {
                                    for (std::size_t j = jlo; j < jhi; ++j) {
                                        body(i, j);
                                    }
                                },
                                &units[ic], ic % lib_.num_shepherds());
                            ++iu;
                        });
                        for (std::size_t u = 0; u < iu; ++u) {
                            lib_.read_ff(&units[u]);
                        }
                    }
                },
                &outer[c], c % lib_.num_shepherds());
            ++used;
        });
        for (std::size_t c = 0; c < used; ++c) {
            lib_.read_ff(&outer[c]);
        }
    }

    void nested_task(std::size_t parents, std::size_t children,
                     const Elem2Fn& body) override {
        std::vector<qth::aligned_t> prets(parents, 0);
        for (std::size_t p = 0; p < parents; ++p) {
            lib_.fork_to(
                [this, &body, p, children] {
                    std::vector<qth::aligned_t> crets(children, 0);
                    for (std::size_t c = 0; c < children; ++c) {
                        lib_.fork([&body, p, c] { body(p, c); }, &crets[c]);
                    }
                    for (auto& r : crets) {
                        lib_.read_ff(&r);
                    }
                },
                &prets[p], p % lib_.num_shepherds());
        }
        for (auto& r : prets) {
            lib_.read_ff(&r);
        }
    }

  private:
    static qth::Config make_config(std::size_t threads, bool per_cpu) {
        qth::Config c;
        if (per_cpu) {
            c.num_shepherds = threads;
            c.workers_per_shepherd = 1;
        } else {
            c.num_shepherds = 1;
            c.workers_per_shepherd = threads;
        }
        return c;
    }

    Variant variant_;
    qth::Library lib_;
    std::size_t threads_;
};

// --- MassiveThreads ---------------------------------------------------------------

class MthRunner final : public PatternRunner {
  public:
    MthRunner(Variant variant, std::size_t threads, mth::Policy policy)
        : variant_(variant), lib_(make_config(threads, policy)) {}

    Variant variant() const override { return variant_; }
    std::size_t threads() const override { return lib_.num_workers(); }

    std::pair<double, double> create_join_times(
        const std::function<void()>& body) override {
        double create_ms = 0.0;
        double join_ms = 0.0;
        lib_.run([&] {
            std::vector<mth::ThreadHandle> handles;
            handles.reserve(unit_count());
            Timer t;
            t.start();
            for (std::size_t i = 0; i < unit_count(); ++i) {
                handles.push_back(lib_.create([&body] { body(); }));
            }
            create_ms = t.stop_ms();
            t.start();
            for (auto& h : handles) {
                h.join();
            }
            join_ms = t.stop_ms();
        });
        return {create_ms, join_ms};
    }

    std::pair<double, double> create_join_times_bulk(
        const std::function<void()>& body) override {
        // Bulk creation is main-thread driven (help-first: the batch has
        // no single continuation to steal), joined via the event counter.
        core::EventCounter done;
        Timer t;
        t.start();
        lib_.create_bulk_detached(unit_count(),
                                  [&body](std::size_t) { body(); }, done);
        const double create_ms = t.stop_ms();
        t.start();
        lib_.wait_counter(done);
        const double join_ms = t.stop_ms();
        return {create_ms, join_ms};
    }

    void for_loop_bulk(std::size_t n, const ElemFn& body) override {
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        chunks.reserve(threads());
        split_range(n, threads(), [&](std::size_t, std::size_t lo, std::size_t hi) {
            chunks.emplace_back(lo, hi);
        });
        core::EventCounter done;
        lib_.create_bulk_detached(
            chunks.size(),
            [&body, &chunks](std::size_t c) {
                for (std::size_t i = chunks[c].first; i < chunks[c].second; ++i) {
                    body(i);
                }
            },
            done);
        lib_.wait_counter(done);
    }

    void for_loop(std::size_t n, const ElemFn& body) override {
        lib_.run([&] {
            std::vector<mth::ThreadHandle> handles;
            handles.reserve(threads());
            split_range(n, threads(),
                        [&](std::size_t, std::size_t lo, std::size_t hi) {
                handles.push_back(lib_.create([&body, lo, hi] {
                    for (std::size_t i = lo; i < hi; ++i) {
                        body(i);
                    }
                }));
            });
            for (auto& h : handles) {
                h.join();
            }
        });
    }

    void task_single(std::size_t n, const ElemFn& body) override {
        lib_.run([&] {
            std::vector<mth::ThreadHandle> handles;
            handles.reserve(n);
            for (std::size_t i = 0; i < n; ++i) {
                handles.push_back(lib_.create([&body, i] { body(i); }));
            }
            for (auto& h : handles) {
                h.join();
            }
        });
    }

    void task_parallel(std::size_t n, const ElemFn& body) override {
        lib_.run([&] {
            std::vector<mth::ThreadHandle> outers;
            outers.reserve(threads());
            split_range(n, threads(),
                        [&](std::size_t, std::size_t lo, std::size_t hi) {
                outers.push_back(lib_.create([this, &body, lo, hi] {
                    std::vector<mth::ThreadHandle> inner;
                    inner.reserve(hi - lo);
                    for (std::size_t i = lo; i < hi; ++i) {
                        inner.push_back(lib_.create([&body, i] { body(i); }));
                    }
                    for (auto& h : inner) {
                        h.join();
                    }
                }));
            });
            for (auto& h : outers) {
                h.join();
            }
        });
    }

    void nested_for(std::size_t outer, std::size_t inner,
                    const Elem2Fn& body) override {
        lib_.run([&] {
            std::vector<mth::ThreadHandle> outers;
            outers.reserve(threads());
            split_range(outer, threads(),
                        [&](std::size_t, std::size_t lo, std::size_t hi) {
                outers.push_back(lib_.create([this, &body, lo, hi, inner] {
                    for (std::size_t i = lo; i < hi; ++i) {
                        std::vector<mth::ThreadHandle> units;
                        units.reserve(threads());
                        split_range(inner, threads(),
                                    [&](std::size_t, std::size_t jlo,
                                        std::size_t jhi) {
                            units.push_back(lib_.create([&body, i, jlo, jhi] {
                                for (std::size_t j = jlo; j < jhi; ++j) {
                                    body(i, j);
                                }
                            }));
                        });
                        for (auto& h : units) {
                            h.join();
                        }
                    }
                }));
            });
            for (auto& h : outers) {
                h.join();
            }
        });
    }

    void nested_task(std::size_t parents, std::size_t children,
                     const Elem2Fn& body) override {
        lib_.run([&] {
            std::vector<mth::ThreadHandle> prts;
            prts.reserve(parents);
            for (std::size_t p = 0; p < parents; ++p) {
                prts.push_back(lib_.create([this, &body, p, children] {
                    std::vector<mth::ThreadHandle> kids;
                    kids.reserve(children);
                    for (std::size_t c = 0; c < children; ++c) {
                        kids.push_back(lib_.create([&body, p, c] { body(p, c); }));
                    }
                    for (auto& h : kids) {
                        h.join();
                    }
                }));
            }
            for (auto& h : prts) {
                h.join();
            }
        });
    }

  private:
    static mth::Config make_config(std::size_t threads, mth::Policy policy) {
        mth::Config c;
        c.num_workers = threads;
        c.policy = policy;
        return c;
    }

    Variant variant_;
    mth::Library lib_;
};

// --- Converse Threads ----------------------------------------------------------------

class CvtRunner final : public PatternRunner {
  public:
    CvtRunner(Variant variant, std::size_t threads)
        : variant_(variant), lib_(make_config(threads)) {}

    Variant variant() const override { return variant_; }
    std::size_t threads() const override { return lib_.num_pes(); }

    std::pair<double, double> create_join_times(
        const std::function<void()>& body) override {
        Timer t;
        t.start();
        for (std::size_t i = 0; i < unit_count(); ++i) {
            lib_.send_message(i % threads(), [&body] { body(); });
        }
        const double create_ms = t.stop_ms();
        t.start();
        lib_.barrier();  // the Converse join: linear in PEs (§VI)
        const double join_ms = t.stop_ms();
        return {create_ms, join_ms};
    }

    std::pair<double, double> create_join_times_bulk(
        const std::function<void()>& body) override {
        core::EventCounter done;
        done.add(static_cast<std::int64_t>(unit_count()));
        Timer t;
        t.start();
        lib_.send_bulk(unit_count(), [&body, &done](std::size_t) {
            body();
            done.signal();
        });
        const double create_ms = t.stop_ms();
        t.start();
        lib_.scheduler_run_until([&] { return done.value() <= 0; });
        const double join_ms = t.stop_ms();
        return {create_ms, join_ms};
    }

    void for_loop_bulk(std::size_t n, const ElemFn& body) override {
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        chunks.reserve(threads());
        split_range(n, threads(), [&](std::size_t, std::size_t lo, std::size_t hi) {
            chunks.emplace_back(lo, hi);
        });
        core::EventCounter done;
        done.add(static_cast<std::int64_t>(chunks.size()));
        lib_.send_bulk(chunks.size(), [&body, &chunks, &done](std::size_t c) {
            for (std::size_t i = chunks[c].first; i < chunks[c].second; ++i) {
                body(i);
            }
            done.signal();
        });
        lib_.scheduler_run_until([&] { return done.value() <= 0; });
    }

    void for_loop(std::size_t n, const ElemFn& body) override {
        split_range(n, threads(), [&](std::size_t c, std::size_t lo, std::size_t hi) {
            lib_.send_message(c % threads(), [&body, lo, hi] {
                for (std::size_t i = lo; i < hi; ++i) {
                    body(i);
                }
            });
        });
        lib_.barrier();
    }

    void task_single(std::size_t n, const ElemFn& body) override {
        for (std::size_t i = 0; i < n; ++i) {
            lib_.send_message(i % threads(), [&body, i] { body(i); });
        }
        lib_.barrier();
    }

    void task_parallel(std::size_t n, const ElemFn& body) override {
        // Two-step with Messages: step-one messages create step-two
        // messages into their own PE's queue; message counting joins
        // (the paper notes the heavy synchronisation this costs Converse).
        std::size_t total = 0;
        split_range(n, threads(), [&](std::size_t, std::size_t lo, std::size_t hi) {
            total += 1 + (hi - lo);
        });
        lib_.msg_track_begin(total);
        split_range(n, threads(), [&](std::size_t c, std::size_t lo, std::size_t hi) {
            lib_.send_message(c % threads(), [this, &body, lo, hi] {
                const std::size_t pe = current_pe();
                for (std::size_t i = lo; i < hi; ++i) {
                    lib_.send_message(pe, [this, &body, i] {
                        body(i);
                        lib_.msg_signal();
                    });
                }
                lib_.msg_signal();
            });
        });
        lib_.msg_wait();
    }

    void nested_for(std::size_t outer, std::size_t inner,
                    const Elem2Fn& body) override {
        // outer chunk messages + threads inner messages per outer iteration.
        std::size_t total = 0;
        split_range(outer, threads(), [&](std::size_t, std::size_t lo, std::size_t hi) {
            total += 1;
            for (std::size_t i = lo; i < hi; ++i) {
                std::size_t inner_units = 0;
                split_range(inner, threads(),
                            [&](std::size_t, std::size_t, std::size_t) {
                    ++inner_units;
                });
                total += inner_units;
            }
        });
        lib_.msg_track_begin(total);
        split_range(outer, threads(), [&](std::size_t c, std::size_t lo, std::size_t hi) {
            lib_.send_message(c % threads(), [this, &body, lo, hi, inner] {
                for (std::size_t i = lo; i < hi; ++i) {
                    split_range(inner, threads(),
                                [&](std::size_t ic, std::size_t jlo,
                                    std::size_t jhi) {
                        lib_.send_message(ic % threads(),
                                          [this, &body, i, jlo, jhi] {
                            for (std::size_t j = jlo; j < jhi; ++j) {
                                body(i, j);
                            }
                            lib_.msg_signal();
                        });
                    });
                }
                lib_.msg_signal();
            });
        });
        lib_.msg_wait();
    }

    void nested_task(std::size_t parents, std::size_t children,
                     const Elem2Fn& body) override {
        lib_.msg_track_begin(parents * (1 + children));
        for (std::size_t p = 0; p < parents; ++p) {
            lib_.send_message(p % threads(), [this, &body, p, children] {
                const std::size_t pe = current_pe();
                for (std::size_t c = 0; c < children; ++c) {
                    lib_.send_message(pe, [this, &body, p, c] {
                        body(p, c);
                        lib_.msg_signal();
                    });
                }
                lib_.msg_signal();
            });
        }
        lib_.msg_wait();
    }

  private:
    static cvt::Config make_config(std::size_t threads) {
        cvt::Config c;
        c.num_pes = threads;
        return c;
    }

    static std::size_t current_pe() {
        core::XStream* s = core::XStream::current();
        return s != nullptr ? s->rank() : 0;
    }

    Variant variant_;
    cvt::Library lib_;
};

// --- Go -----------------------------------------------------------------------------

class GolRunner final : public PatternRunner {
  public:
    GolRunner(Variant variant, std::size_t threads)
        : variant_(variant), lib_(make_config(threads)) {}

    Variant variant() const override { return variant_; }
    std::size_t threads() const override { return lib_.num_threads(); }

    std::pair<double, double> create_join_times(
        const std::function<void()>& body) override {
        core::Channel<int> done(unit_count());
        Timer t;
        t.start();
        for (std::size_t i = 0; i < unit_count(); ++i) {
            lib_.go([&body, &done] {
                body();
                done.send(1);
            });
        }
        const double create_ms = t.stop_ms();
        t.start();
        for (std::size_t i = 0; i < unit_count(); ++i) {
            done.recv();  // out-of-order channel join (§VI)
        }
        const double join_ms = t.stop_ms();
        return {create_ms, join_ms};
    }

    std::pair<double, double> create_join_times_bulk(
        const std::function<void()>& body) override {
        // WaitGroup idiom: one counter for the batch instead of a channel
        // receive per goroutine.
        core::EventCounter done;
        done.add(static_cast<std::int64_t>(unit_count()));
        Timer t;
        t.start();
        lib_.go_bulk(unit_count(), [&body, &done](std::size_t) {
            body();
            done.signal();
        });
        const double create_ms = t.stop_ms();
        t.start();
        done.wait();
        const double join_ms = t.stop_ms();
        return {create_ms, join_ms};
    }

    void for_loop_bulk(std::size_t n, const ElemFn& body) override {
        std::vector<std::pair<std::size_t, std::size_t>> chunks;
        chunks.reserve(threads());
        split_range(n, threads(), [&](std::size_t, std::size_t lo, std::size_t hi) {
            chunks.emplace_back(lo, hi);
        });
        core::EventCounter done;
        done.add(static_cast<std::int64_t>(chunks.size()));
        lib_.go_bulk(chunks.size(), [&body, &chunks, &done](std::size_t c) {
            for (std::size_t i = chunks[c].first; i < chunks[c].second; ++i) {
                body(i);
            }
            done.signal();
        });
        done.wait();
    }

    void for_loop(std::size_t n, const ElemFn& body) override {
        core::Channel<int> done(threads());
        std::size_t used = 0;
        split_range(n, threads(), [&](std::size_t, std::size_t lo, std::size_t hi) {
            lib_.go([&body, &done, lo, hi] {
                for (std::size_t i = lo; i < hi; ++i) {
                    body(i);
                }
                done.send(1);
            });
            ++used;
        });
        for (std::size_t i = 0; i < used; ++i) {
            done.recv();
        }
    }

    void task_single(std::size_t n, const ElemFn& body) override {
        core::Channel<int> done(n);
        for (std::size_t i = 0; i < n; ++i) {
            lib_.go([&body, &done, i] {
                body(i);
                done.send(1);
            });
        }
        for (std::size_t i = 0; i < n; ++i) {
            done.recv();
        }
    }

    void task_parallel(std::size_t n, const ElemFn& body) override {
        core::Channel<int> done(n + threads());
        std::size_t expected = 0;
        split_range(n, threads(), [&](std::size_t, std::size_t lo, std::size_t hi) {
            expected += 1 + (hi - lo);
            lib_.go([this, &body, &done, lo, hi] {
                for (std::size_t i = lo; i < hi; ++i) {
                    lib_.go([&body, &done, i] {
                        body(i);
                        done.send(1);
                    });
                }
                done.send(1);
            });
        });
        for (std::size_t i = 0; i < expected; ++i) {
            done.recv();
        }
    }

    void nested_for(std::size_t outer, std::size_t inner,
                    const Elem2Fn& body) override {
        core::Channel<int> done(256);
        std::atomic<std::size_t> sent{0};
        std::size_t expected = 0;
        split_range(outer, threads(), [&](std::size_t, std::size_t lo, std::size_t hi) {
            expected += 1;
            std::size_t inner_units = 0;
            split_range(inner, threads(),
                        [&](std::size_t, std::size_t, std::size_t) { ++inner_units; });
            expected += (hi - lo) * inner_units;
            lib_.go([this, &body, &done, lo, hi, inner] {
                for (std::size_t i = lo; i < hi; ++i) {
                    split_range(inner, threads(),
                                [&](std::size_t, std::size_t jlo, std::size_t jhi) {
                        lib_.go([&body, &done, i, jlo, jhi] {
                            for (std::size_t j = jlo; j < jhi; ++j) {
                                body(i, j);
                            }
                            done.send(1);
                        });
                    });
                }
                done.send(1);
            });
        });
        (void)sent;
        for (std::size_t i = 0; i < expected; ++i) {
            done.recv();
        }
    }

    void nested_task(std::size_t parents, std::size_t children,
                     const Elem2Fn& body) override {
        core::Channel<int> done(256);
        const std::size_t expected = parents * (1 + children);
        for (std::size_t p = 0; p < parents; ++p) {
            lib_.go([this, &body, &done, p, children] {
                for (std::size_t c = 0; c < children; ++c) {
                    lib_.go([&body, &done, p, c] {
                        body(p, c);
                        done.send(1);
                    });
                }
                done.send(1);
            });
        }
        for (std::size_t i = 0; i < expected; ++i) {
            done.recv();
        }
    }

  private:
    static gol::Config make_config(std::size_t threads) {
        gol::Config c;
        c.num_threads = threads;
        return c;
    }

    Variant variant_;
    gol::Library lib_;
};

// --- raw Pthreads baseline ---------------------------------------------------------------

/// Table I's reference column: every work unit is an OS thread, created and
/// joined with the raw threading API. No pools, no scheduler — exactly the
/// cost the LWT libraries exist to avoid. Patterns whose unit counts are
/// large make the overhead (stack + kernel object per unit) directly
/// visible in Figures 2-6; nested patterns spawn threads from threads, the
/// §VII-C oversubscription hazard in its purest form.
class PthreadsRunner final : public PatternRunner {
  public:
    PthreadsRunner(Variant variant, std::size_t threads)
        : variant_(variant), threads_(threads == 0 ? 1 : threads) {}

    Variant variant() const override { return variant_; }
    std::size_t threads() const override { return threads_; }

    std::pair<double, double> create_join_times(
        const std::function<void()>& body) override {
        std::vector<std::thread> units;
        units.reserve(unit_count());
        Timer t;
        t.start();
        for (std::size_t i = 0; i < unit_count(); ++i) {
            units.emplace_back([&body] { body(); });
        }
        const double create_ms = t.stop_ms();
        t.start();
        for (auto& u : units) {
            u.join();
        }
        const double join_ms = t.stop_ms();
        return {create_ms, join_ms};
    }

    void for_loop(std::size_t n, const ElemFn& body) override {
        std::vector<std::thread> units;
        units.reserve(threads_);
        split_range(n, threads_, [&](std::size_t, std::size_t lo, std::size_t hi) {
            units.emplace_back([&body, lo, hi] {
                for (std::size_t i = lo; i < hi; ++i) {
                    body(i);
                }
            });
        });
        for (auto& u : units) {
            u.join();
        }
    }

    void task_single(std::size_t n, const ElemFn& body) override {
        // One OS thread per task, capped in flight to avoid exhausting the
        // process thread limit on huge n (real task runtimes never do this;
        // that is the point).
        const std::size_t kMaxInFlight = 128;
        std::vector<std::thread> units;
        units.reserve(kMaxInFlight);
        for (std::size_t i = 0; i < n; ++i) {
            if (units.size() == kMaxInFlight) {
                for (auto& u : units) {
                    u.join();
                }
                units.clear();
            }
            units.emplace_back([&body, i] { body(i); });
        }
        for (auto& u : units) {
            u.join();
        }
    }

    void task_parallel(std::size_t n, const ElemFn& body) override {
        std::vector<std::thread> outers;
        outers.reserve(threads_);
        split_range(n, threads_, [&](std::size_t, std::size_t lo, std::size_t hi) {
            outers.emplace_back([this, &body, lo, hi] {
                std::vector<std::thread> inner;
                inner.reserve(hi - lo);
                for (std::size_t i = lo; i < hi; ++i) {
                    inner.emplace_back([&body, i] { body(i); });
                }
                for (auto& u : inner) {
                    u.join();
                }
            });
        });
        for (auto& u : outers) {
            u.join();
        }
        (void)this;
    }

    void nested_for(std::size_t outer, std::size_t inner,
                    const Elem2Fn& body) override {
        std::vector<std::thread> outers;
        outers.reserve(threads_);
        split_range(outer, threads_,
                    [&](std::size_t, std::size_t lo, std::size_t hi) {
            outers.emplace_back([this, &body, lo, hi, inner] {
                for (std::size_t i = lo; i < hi; ++i) {
                    std::vector<std::thread> units;
                    units.reserve(threads_);
                    split_range(inner, threads_,
                                [&](std::size_t, std::size_t jlo,
                                    std::size_t jhi) {
                        units.emplace_back([&body, i, jlo, jhi] {
                            for (std::size_t j = jlo; j < jhi; ++j) {
                                body(i, j);
                            }
                        });
                    });
                    for (auto& u : units) {
                        u.join();
                    }
                }
            });
        });
        for (auto& u : outers) {
            u.join();
        }
    }

    void nested_task(std::size_t parents, std::size_t children,
                     const Elem2Fn& body) override {
        const std::size_t kMaxInFlight = 64;
        std::vector<std::thread> prts;
        for (std::size_t p = 0; p < parents; ++p) {
            if (prts.size() == kMaxInFlight) {
                for (auto& u : prts) {
                    u.join();
                }
                prts.clear();
            }
            prts.emplace_back([&body, p, children] {
                std::vector<std::thread> kids;
                kids.reserve(children);
                for (std::size_t c = 0; c < children; ++c) {
                    kids.emplace_back([&body, p, c] { body(p, c); });
                }
                for (auto& u : kids) {
                    u.join();
                }
            });
        }
        for (auto& u : prts) {
            u.join();
        }
    }

  private:
    Variant variant_;
    std::size_t threads_;
};

// --- mini-OpenMP ------------------------------------------------------------------------

class MompRunner final : public PatternRunner {
  public:
    MompRunner(Variant variant, std::size_t threads, momp::Flavor flavor)
        : variant_(variant), threads_(threads), rt_(make_config(flavor, threads)) {}

    Variant variant() const override { return variant_; }
    std::size_t threads() const override { return threads_; }

    std::pair<double, double> create_join_times(
        const std::function<void()>& body) override {
        // Threads already exist in the team (the paper excludes Pthread
        // creation); the master measures task creation and the join.
        double create_ms = 0.0;
        double join_ms = 0.0;
        rt_.parallel([&](std::size_t tid, std::size_t) {
            if (tid == 0) {
                Timer t;
                t.start();
                for (std::size_t i = 0; i < unit_count(); ++i) {
                    momp::Runtime::task([&body] { body(); });
                }
                create_ms = t.stop_ms();
                t.start();
                momp::Runtime::taskwait();
                join_ms = t.stop_ms();
            }
        });
        return {create_ms, join_ms};
    }

    std::pair<double, double> create_join_times_bulk(
        const std::function<void()>& body) override {
        double create_ms = 0.0;
        double join_ms = 0.0;
        rt_.parallel([&](std::size_t tid, std::size_t) {
            if (tid == 0) {
                Timer t;
                t.start();
                momp::Runtime::task_bulk(unit_count(),
                                         [&body](std::size_t) { body(); });
                create_ms = t.stop_ms();
                t.start();
                momp::Runtime::taskwait();
                join_ms = t.stop_ms();
            }
        });
        return {create_ms, join_ms};
    }

    void for_loop(std::size_t n, const ElemFn& body) override {
        rt_.parallel_for(n, body);
    }

    void for_loop_bulk(std::size_t n, const ElemFn& body) override {
        // taskloop: one submit_bulk burst of per-thread chunks.
        rt_.parallel_for_taskloop(n, 0, body);
    }

    void task_single(std::size_t n, const ElemFn& body) override {
        rt_.parallel([&](std::size_t tid, std::size_t) {
            if (tid == 0) {  // #pragma omp single
                for (std::size_t i = 0; i < n; ++i) {
                    momp::Runtime::task([&body, i] { body(i); });
                }
            }
        });
    }

    void task_parallel(std::size_t n, const ElemFn& body) override {
        rt_.parallel([&](std::size_t tid, std::size_t nth) {
            split_range(n, nth, [&](std::size_t c, std::size_t lo, std::size_t hi) {
                if (c == tid) {
                    for (std::size_t i = lo; i < hi; ++i) {
                        momp::Runtime::task([&body, i] { body(i); });
                    }
                }
            });
        });
    }

    void nested_for(std::size_t outer, std::size_t inner,
                    const Elem2Fn& body) override {
        rt_.parallel_for(outer, [&](std::size_t i) {
            rt_.parallel_for(inner, [&body, i](std::size_t j) { body(i, j); });
        });
    }

    void nested_task(std::size_t parents, std::size_t children,
                     const Elem2Fn& body) override {
        rt_.parallel([&](std::size_t tid, std::size_t) {
            if (tid == 0) {
                for (std::size_t p = 0; p < parents; ++p) {
                    momp::Runtime::task([&body, p, children] {
                        for (std::size_t c = 0; c < children; ++c) {
                            momp::Runtime::task([&body, p, c] { body(p, c); });
                        }
                    });
                }
            }
        });
    }

  private:
    static momp::Config make_config(momp::Flavor flavor, std::size_t threads) {
        momp::Config c;
        c.flavor = flavor;
        c.num_threads = threads;
        // The paper sets OMP_WAIT_POLICY=passive for the task benchmarks;
        // on an oversubscribed host passive is the sane default throughout.
        c.wait_policy = momp::WaitPolicy::kPassive;
        return c;
    }

    Variant variant_;
    std::size_t threads_;
    momp::Runtime rt_;
};

}  // namespace

std::unique_ptr<PatternRunner> make_runner(Variant variant,
                                           std::size_t threads) {
    switch (variant) {
        case Variant::kPthreads:
            return std::make_unique<PthreadsRunner>(variant, threads);
        case Variant::kAbtUltPrivate:
            return std::make_unique<AbtRunner>(variant, threads,
                                               abt::PoolKind::kPrivate, false);
        case Variant::kAbtUltShared:
            return std::make_unique<AbtRunner>(variant, threads,
                                               abt::PoolKind::kShared, false);
        case Variant::kAbtTaskletPrivate:
            return std::make_unique<AbtRunner>(variant, threads,
                                               abt::PoolKind::kPrivate, true);
        case Variant::kAbtTaskletShared:
            return std::make_unique<AbtRunner>(variant, threads,
                                               abt::PoolKind::kShared, true);
        case Variant::kQthPerCpu:
            return std::make_unique<QthRunner>(variant, threads, true);
        case Variant::kQthSingleShepherd:
            return std::make_unique<QthRunner>(variant, threads, false);
        case Variant::kMthWorkFirst:
            return std::make_unique<MthRunner>(variant, threads,
                                               mth::Policy::kWorkFirst);
        case Variant::kMthHelpFirst:
            return std::make_unique<MthRunner>(variant, threads,
                                               mth::Policy::kHelpFirst);
        case Variant::kCvtMessages:
            return std::make_unique<CvtRunner>(variant, threads);
        case Variant::kGolShared:
            return std::make_unique<GolRunner>(variant, threads);
        case Variant::kOmpGcc:
            return std::make_unique<MompRunner>(variant, threads,
                                                momp::Flavor::kGcc);
        case Variant::kOmpIcc:
            return std::make_unique<MompRunner>(variant, threads,
                                                momp::Flavor::kIcc);
    }
    return nullptr;
}

}  // namespace lwt::patterns
