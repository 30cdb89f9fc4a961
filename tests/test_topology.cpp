// Tests for topology discovery, synthetic fixtures, binding plans, and the
// stream-level locality map (domains + tiered victim ordering).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>

#include "arch/locality.hpp"
#include "arch/settings.hpp"
#include "arch/topology.hpp"

namespace {

using lwt::arch::apply_binding;
using lwt::arch::BindPolicy;
using lwt::arch::CpuInfo;
using lwt::arch::LocalityMap;
using lwt::arch::Topology;

/// The paper's testbed: 2 packages x 18 cores x 2 hardware threads.
Topology paper_machine() {
    std::vector<CpuInfo> cpus;
    unsigned cpu = 0;
    for (unsigned thread = 0; thread < 2; ++thread) {
        for (unsigned pkg = 0; pkg < 2; ++pkg) {
            for (unsigned core = 0; core < 18; ++core) {
                cpus.push_back(CpuInfo{cpu++, core, pkg});
            }
        }
    }
    return Topology(std::move(cpus));
}

TEST(Topology, DiscoverReturnsAtLeastOneCpu) {
    const Topology topo = Topology::discover();
    EXPECT_GE(topo.num_cpus(), 1u);
    EXPECT_GE(topo.num_packages(), 1u);
    EXPECT_GE(topo.num_cores(), 1u);
    EXPECT_FALSE(topo.describe().empty());
}

TEST(Topology, PaperMachineCounts) {
    const Topology topo = paper_machine();
    EXPECT_EQ(topo.num_cpus(), 72u);
    EXPECT_EQ(topo.num_packages(), 2u);
    EXPECT_EQ(topo.num_cores(), 36u);
    EXPECT_EQ(topo.describe(), "2 packages x 18 cores x 2 threads");
}

TEST(Topology, NonePolicyPlansNothing) {
    const Topology topo = paper_machine();
    EXPECT_TRUE(topo.plan(BindPolicy::kNone, 8).empty());
}

TEST(Topology, CompactFillsFirstPackageFirst) {
    const Topology topo = paper_machine();
    const auto plan = topo.plan(BindPolicy::kCompact, 18);
    ASSERT_EQ(plan.size(), 18u);
    // All 18 streams must land on package 0 CPUs.
    std::set<unsigned> pkg0_cpus;
    for (const CpuInfo& c : topo.cpus()) {
        if (c.package_id == 0) {
            pkg0_cpus.insert(c.cpu_id);
        }
    }
    for (unsigned cpu : plan) {
        EXPECT_TRUE(pkg0_cpus.count(cpu) == 1) << cpu;
    }
}

TEST(Topology, ScatterAlternatesPackages) {
    const Topology topo = paper_machine();
    const auto plan = topo.plan(BindPolicy::kScatter, 8);
    ASSERT_EQ(plan.size(), 8u);
    // Map back to packages: must alternate 0,1,0,1,...
    auto package_of = [&](unsigned cpu) {
        for (const CpuInfo& c : topo.cpus()) {
            if (c.cpu_id == cpu) {
                return c.package_id;
            }
        }
        return ~0u;
    };
    for (std::size_t i = 0; i < plan.size(); ++i) {
        EXPECT_EQ(package_of(plan[i]), i % 2) << i;
    }
}

TEST(Topology, PlanWrapsBeyondCpuCount) {
    std::vector<CpuInfo> two = {{0, 0, 0}, {1, 1, 0}};
    const Topology topo{std::move(two)};
    const auto plan = topo.plan(BindPolicy::kCompact, 5);
    ASSERT_EQ(plan.size(), 5u);
    EXPECT_EQ(plan[0], plan[2]);
    EXPECT_EQ(plan[1], plan[3]);
}

TEST(Topology, ApplyBindingSucceedsOnThisHost) {
    const Topology topo = Topology::discover();
    const auto plan = topo.plan(BindPolicy::kCompact, 4);
    EXPECT_TRUE(apply_binding(plan, 0));
    EXPECT_TRUE(apply_binding({}, 3));  // empty plan: no-op success
}

TEST(Topology, DistinctCpusWithinCapacity) {
    const Topology topo = paper_machine();
    for (BindPolicy p : {BindPolicy::kCompact, BindPolicy::kScatter}) {
        const auto plan = topo.plan(p, 72);
        std::set<unsigned> unique(plan.begin(), plan.end());
        EXPECT_EQ(unique.size(), 72u) << "policy reused a CPU too early";
    }
}

// --- Synthetic fixture specs (LWT_TOPOLOGY) -------------------------------------

TEST(TopologySpec, PaperMachine) {
    const auto topo = Topology::from_spec("2x18x2");
    ASSERT_TRUE(topo.has_value());
    EXPECT_EQ(topo->num_cpus(), 72u);
    EXPECT_EQ(topo->num_packages(), 2u);
    EXPECT_EQ(topo->num_cores(), 36u);
    EXPECT_TRUE(topo->synthetic());
    EXPECT_EQ(topo->describe(), "2 packages x 18 cores x 2 threads");
}

TEST(TopologySpec, TwoFieldSpecImpliesOneThread) {
    const auto topo = Topology::from_spec("2x4");
    ASSERT_TRUE(topo.has_value());
    EXPECT_EQ(topo->num_cpus(), 8u);
    EXPECT_EQ(topo->num_packages(), 2u);
    EXPECT_EQ(topo->num_cores(), 8u);
}

TEST(TopologySpec, SingleSocketSmtLess) {
    const auto topo = Topology::from_spec("1x4x1");
    ASSERT_TRUE(topo.has_value());
    EXPECT_EQ(topo->num_cpus(), 4u);
    EXPECT_EQ(topo->num_packages(), 1u);
    EXPECT_EQ(topo->num_cores(), 4u);
}

TEST(TopologySpec, RejectsMalformedSpecs) {
    for (const char* bad :
         {"", "x", "2x", "x4", "0x4x1", "2x0", "2x4x0", "2x4x2x1", "abc",
          "2x18x2 extra", "-2x4", "2x4junk"}) {
        EXPECT_FALSE(Topology::from_spec(bad).has_value()) << bad;
    }
}

// Settings are resolved at runtime boot; with no runtime here, the tests
// re-resolve them by hand after changing the environment.
TEST(TopologySpec, EnvOverrideWinsWhenValid) {
    ::setenv("LWT_TOPOLOGY", "2x2x1", 1);
    lwt::arch::load_settings();
    const Topology topo = Topology::from_env_or_discover();
    EXPECT_EQ(topo.num_cpus(), 4u);
    EXPECT_EQ(topo.num_packages(), 2u);
    EXPECT_TRUE(topo.synthetic());
    ::unsetenv("LWT_TOPOLOGY");
    lwt::arch::load_settings();
}

TEST(TopologySpec, EnvOverrideInvalidFallsBackToDiscovery) {
    ::setenv("LWT_TOPOLOGY", "not-a-spec", 1);
    lwt::arch::load_settings();
    const Topology topo = Topology::from_env_or_discover();
    EXPECT_FALSE(topo.synthetic());
    EXPECT_GE(topo.num_cpus(), 1u);
    ::unsetenv("LWT_TOPOLOGY");
    lwt::arch::load_settings();
}

TEST(TopologySpec, DomainsListPackagesAscending) {
    const Topology topo = paper_machine();
    const auto domains = topo.domains();
    ASSERT_EQ(domains.size(), 2u);
    EXPECT_EQ(domains[0].package_id, 0u);
    EXPECT_EQ(domains[1].package_id, 1u);
    EXPECT_EQ(domains[0].cpus.size(), 36u);
    EXPECT_EQ(domains[1].cpus.size(), 36u);
}

// --- LocalityMap ----------------------------------------------------------------

TEST(Locality, FlatMapIsOneDomainNoSiblings) {
    const LocalityMap map = LocalityMap::flat(4);
    EXPECT_EQ(map.num_streams(), 4u);
    EXPECT_EQ(map.num_domains(), 1u);
    EXPECT_FALSE(map.should_bind());
    EXPECT_EQ(map.streams_in_domain(0).size(), 4u);
    const auto tiers = map.victim_tiers(0);
    EXPECT_TRUE(tiers.sibling.empty());
    EXPECT_TRUE(tiers.remote.empty());
    EXPECT_EQ(tiers.package, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(Locality, NonePolicyOnRealTopologyStaysFlat) {
    // kNone + a discovered machine: no placement knowledge, so everything
    // collapses to the flat single-domain map (the pre-locality behaviour).
    const LocalityMap map(Topology::discover(), BindPolicy::kNone, 6);
    EXPECT_EQ(map.num_domains(), 1u);
    EXPECT_FALSE(map.should_bind());
    const auto tiers = map.victim_tiers(2);
    EXPECT_TRUE(tiers.sibling.empty());
    EXPECT_TRUE(tiers.remote.empty());
    EXPECT_EQ(tiers.package.size(), 5u);
}

TEST(Locality, SyntheticFixtureGroupsWithoutBinding) {
    // 2 packages x 2 cores x 2 threads, 8 streams compact-grouped: ranks
    // 0,1 share a core; 0..3 share package 0; 4..7 are remote.
    const auto topo = Topology::from_spec("2x2x2");
    ASSERT_TRUE(topo.has_value());
    const LocalityMap map(*topo, BindPolicy::kNone, 8);
    EXPECT_EQ(map.num_domains(), 2u);
    EXPECT_FALSE(map.should_bind()) << "synthetic fixtures must never pin";
    EXPECT_EQ(map.streams_in_domain(0), (std::vector<std::size_t>{0, 1, 2, 3}));
    EXPECT_EQ(map.streams_in_domain(1), (std::vector<std::size_t>{4, 5, 6, 7}));

    const auto tiers = map.victim_tiers(0);
    EXPECT_EQ(tiers.sibling, (std::vector<std::size_t>{1}));
    EXPECT_EQ(tiers.package, (std::vector<std::size_t>{2, 3}));
    EXPECT_EQ(tiers.remote, (std::vector<std::size_t>{4, 5, 6, 7}));
}

TEST(Locality, VictimTiersPartitionAllOtherStreams) {
    const auto topo = Topology::from_spec("2x18x2");
    ASSERT_TRUE(topo.has_value());
    const LocalityMap map(*topo, BindPolicy::kScatter, 16);
    for (std::size_t r = 0; r < map.num_streams(); ++r) {
        const auto tiers = map.victim_tiers(r);
        std::set<std::size_t> all;
        for (const auto* tier : {&tiers.sibling, &tiers.package, &tiers.remote}) {
            for (std::size_t v : *tier) {
                EXPECT_NE(v, r);
                EXPECT_TRUE(all.insert(v).second) << "victim listed twice";
            }
        }
        EXPECT_EQ(all.size(), map.num_streams() - 1);
    }
}

TEST(Locality, StreamsBeyondCpuCountWrapOntoCores) {
    // 1 package x 2 cores x 1 thread with 4 streams: the plan wraps, so
    // streams 0/2 and 1/3 share a core and become SMT-tier siblings.
    const auto topo = Topology::from_spec("1x2x1");
    ASSERT_TRUE(topo.has_value());
    const LocalityMap map(*topo, BindPolicy::kNone, 4);
    EXPECT_EQ(map.num_domains(), 1u);
    const auto tiers = map.victim_tiers(0);
    EXPECT_EQ(tiers.sibling, (std::vector<std::size_t>{2}));
    EXPECT_EQ(tiers.package, (std::vector<std::size_t>{1, 3}));
    EXPECT_TRUE(tiers.remote.empty());
}

TEST(Locality, StealTierNames) {
    EXPECT_STREQ(lwt::arch::steal_tier_name(0), "sibling");
    EXPECT_STREQ(lwt::arch::steal_tier_name(1), "package");
    EXPECT_STREQ(lwt::arch::steal_tier_name(2), "remote");
}

}  // namespace
