/**
 * The shared cone core (sim/cone.hh) against a reference computed
 * straight from netlist::Netlist::consumers: on every gate of the
 * hardened c432, s298 and s1488-class machines the memoized cone is
 * the reference cone, a union of random seed sets is the sorted set
 * union of the single cones (and reach() is the same set unsorted),
 * and interleaving union builds with first-time memo builds and memo
 * hits changes neither result.
 */

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ingest/harden.hh"
#include "ingest/import.hh"
#include "netlist/netlist.hh"
#include "sim/cone.hh"
#include "sim/flat.hh"
#include "util/rng.hh"

using namespace scal;
using namespace scal::netlist;

namespace
{

std::string
circuitPath(const std::string &file)
{
    for (const char *dir : {"circuits", "../circuits", "../../circuits"}) {
        const std::string p = std::string(dir) + "/" + file;
        if (std::ifstream(p))
            return p;
    }
    ADD_FAILURE() << "cannot locate circuits/" << file;
    return file;
}

Netlist
hardened(const std::string &file)
{
    return ingest::hardenNetlist(ingest::importCircuit(circuitPath(file)).net)
        .net;
}

/** Gates reachable from @p seed through Netlist::consumers, not
 *  crossing a Dff D pin (a sequential boundary), sorted by position
 *  in Netlist::topoOrder(). */
std::vector<GateId>
referenceCone(const Netlist &net, const std::vector<int> &pos, GateId seed)
{
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(net.numGates()),
                                   0);
    std::vector<GateId> cone{seed}, frontier{seed};
    seen[static_cast<std::size_t>(seed)] = 1;
    while (!frontier.empty()) {
        const GateId g = frontier.back();
        frontier.pop_back();
        for (const auto &[c, pin] : net.consumers(g)) {
            (void)pin;
            if (net.gate(c).kind == GateKind::Dff ||
                seen[static_cast<std::size_t>(c)])
                continue;
            seen[static_cast<std::size_t>(c)] = 1;
            cone.push_back(c);
            frontier.push_back(c);
        }
    }
    std::sort(cone.begin(), cone.end(), [&pos](GateId a, GateId b) {
        return pos[static_cast<std::size_t>(a)] <
               pos[static_cast<std::size_t>(b)];
    });
    return cone;
}

void
checkCircuit(const std::string &file, std::uint64_t seed)
{
    SCOPED_TRACE(file);
    const Netlist net = hardened(file);
    const sim::FlatNetlist flat(net);
    const int n = net.numGates();
    std::vector<int> pos(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        pos[static_cast<std::size_t>(net.topoOrder()[static_cast<std::size_t>(
            i)])] = i;
    const auto topo_less = [&pos](GateId a, GateId b) {
        return pos[static_cast<std::size_t>(a)] <
               pos[static_cast<std::size_t>(b)];
    };

    std::vector<std::vector<GateId>> ref(static_cast<std::size_t>(n));
    sim::FanoutCones memo(flat);
    for (GateId g = 0; g < n; ++g) {
        ref[static_cast<std::size_t>(g)] = referenceCone(net, pos, g);
        ASSERT_EQ(memo.cone(g), ref[static_cast<std::size_t>(g)])
            << "gate " << g;
    }
    for (GateId g = 0; g < n; ++g) // memo hits return the same cone
        ASSERT_EQ(memo.cone(g), ref[static_cast<std::size_t>(g)])
            << "gate " << g;

    // `mixed` starts cold: its memo entries get built between union
    // builds while a union result is still held.
    sim::FanoutCones mixed(flat);
    util::Rng rng(seed);
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<GateId> seeds(1 + rng.below(8));
        for (GateId &s : seeds)
            s = static_cast<GateId>(rng.below(static_cast<std::uint64_t>(n)));
        if (trial % 5 == 0)
            seeds.push_back(seeds[0]); // duplicate seeds are fine

        std::vector<GateId> want;
        for (const GateId s : seeds) {
            std::vector<GateId> merged;
            const auto &c = ref[static_cast<std::size_t>(s)];
            std::set_union(want.begin(), want.end(), c.begin(), c.end(),
                           std::back_inserter(merged), topo_less);
            want.swap(merged);
        }

        EXPECT_EQ(memo.unionCone(seeds.data(), seeds.size()), want)
            << "trial " << trial;
        std::vector<GateId> reached =
            memo.reach(seeds.data(), seeds.size());
        std::sort(reached.begin(), reached.end(), topo_less);
        EXPECT_EQ(reached, want) << "trial " << trial;

        const std::vector<GateId> &u =
            mixed.unionCone(seeds.data(), seeds.size());
        for (const GateId s : seeds)
            ASSERT_EQ(mixed.cone(s), ref[static_cast<std::size_t>(s)])
                << "trial " << trial << " seed " << s;
        EXPECT_EQ(u, want) << "trial " << trial;
    }
}

TEST(Cone, HardenedC432)
{
    checkCircuit("c432.bench", 0xc432);
}

TEST(Cone, HardenedS298)
{
    checkCircuit("s298.bench", 0x5298);
}

TEST(Cone, HardenedS1488Class)
{
    checkCircuit("s1488-class.bench", 0x1488);
}

TEST(Cone, SortByTopoOrdersAnyGateList)
{
    const Netlist net = hardened("s298.bench");
    const sim::FlatNetlist flat(net);
    std::vector<GateId> gates(net.topoOrder().rbegin(),
                              net.topoOrder().rend());
    sim::sortByTopo(flat, gates);
    EXPECT_EQ(gates, net.topoOrder());
}

} // namespace
