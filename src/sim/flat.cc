#include "sim/flat.hh"

#include <algorithm>

namespace scal::sim
{

using namespace netlist;

FlatNetlist::FlatNetlist(const Netlist &net)
{
    net.validate();

    n_ = net.numGates();
    ni_ = net.numInputs();
    no_ = net.numOutputs();
    kinds_.resize(n_);
    for (GateId g = 0; g < n_; ++g)
        kinds_[g] = net.gate(g).kind;

    // Fanin CSR.
    faninOff_.assign(n_ + 1, 0);
    for (GateId g = 0; g < n_; ++g) {
        const int a = static_cast<int>(net.gate(g).fanin.size());
        faninOff_[g + 1] = faninOff_[g] + a;
        maxArity_ = std::max(maxArity_, a);
    }
    fanins_.resize(faninOff_[n_]);
    for (GateId g = 0; g < n_; ++g) {
        std::copy(net.gate(g).fanin.begin(), net.gate(g).fanin.end(),
                  fanins_.begin() + faninOff_[g]);
    }

    // Combinational consumer CSR. A Dff's D pin is a real fault site
    // but not a combinational edge: the Dff output comes from the
    // state vector, so changes never propagate through it within a
    // period. Excluding those edges here is what lets cone traversal
    // stop at sequential boundaries.
    consOff_.assign(n_ + 1, 0);
    for (GateId g = 0; g < n_; ++g) {
        for (auto [c, pin] : net.consumers(g)) {
            (void)pin;
            if (kinds_[c] != GateKind::Dff)
                ++consOff_[g + 1];
        }
    }
    for (GateId g = 0; g < n_; ++g)
        consOff_[g + 1] += consOff_[g];
    cons_.resize(consOff_[n_]);
    {
        std::vector<std::int32_t> at(consOff_.begin(),
                                     consOff_.end() - 1);
        for (GateId g = 0; g < n_; ++g) {
            for (auto [c, pin] : net.consumers(g)) {
                (void)pin;
                if (kinds_[c] != GateKind::Dff)
                    cons_[at[g]++] = c;
            }
        }
    }

    // Output-tap CSR.
    tapOff_.assign(n_ + 1, 0);
    for (GateId g = 0; g < n_; ++g)
        tapOff_[g + 1] =
            tapOff_[g] + static_cast<std::int32_t>(net.outputTaps(g).size());
    taps_.resize(tapOff_[n_]);
    for (GateId g = 0; g < n_; ++g) {
        std::copy(net.outputTaps(g).begin(), net.outputTaps(g).end(),
                  taps_.begin() + tapOff_[g]);
    }

    // Topological order, positions, levels.
    topo_ = net.topoOrder();
    topoPos_.assign(n_, 0);
    for (int i = 0; i < n_; ++i)
        topoPos_[topo_[i]] = i;
    level_.assign(n_, 0);
    for (GateId g : topo_) {
        if (kinds_[g] == GateKind::Dff)
            continue; // source within the period
        int lvl = 0;
        for (int k = faninOff_[g]; k < faninOff_[g + 1]; ++k)
            lvl = std::max(lvl, level_[fanins_[k]] + 1);
        level_[g] = lvl;
        nlevels_ = std::max(nlevels_, lvl + 1);
    }
    // Level order: a counting sort of the topological order by level.
    // Consumers sit on strictly higher levels than their drivers (Dff
    // D pins are not combinational edges), so it is itself
    // topological.
    levelPos_.assign(n_, 0);
    levelStarts_.assign((static_cast<std::size_t>(n_) + 63) / 64, 0);
    {
        const int nl =
            n_ ? 1 + *std::max_element(level_.begin(), level_.end()) : 0;
        std::vector<std::int32_t> at(static_cast<std::size_t>(nl) + 1, 0);
        for (GateId g = 0; g < n_; ++g)
            ++at[level_[g] + 1];
        for (int l = 0; l < nl; ++l) {
            at[l + 1] += at[l];
            const int start = at[l];
            levelStarts_[static_cast<std::size_t>(start) / 64] |=
                std::uint64_t{1} << (start % 64);
        }
        for (const GateId g : topo_)
            levelPos_[g] = at[level_[g]]++;
    }
    levelOrder_.resize(n_);
    for (GateId g = 0; g < n_; ++g)
        levelOrder_[levelPos_[g]] = g;
    levelConsOff_.assign(n_ + 1, 0);
    levelCons_.resize(cons_.size());
    for (int i = 0; i < n_; ++i) {
        const GateId g = levelOrder_[i];
        levelConsOff_[i + 1] = levelConsOff_[i] + consOff_[g + 1] - consOff_[g];
        for (int k = consOff_[g]; k < consOff_[g + 1]; ++k)
            levelCons_[levelConsOff_[i] + k - consOff_[g]] =
                levelPos_[cons_[k]];
    }

    // O(1) lookup tables replacing the evaluators' linear scans.
    inputIndex_.assign(n_, -1);
    for (std::size_t i = 0; i < net.inputs().size(); ++i)
        inputIndex_[net.inputs()[i]] = static_cast<std::int32_t>(i);
    ffIndex_.assign(n_, -1);
    for (GateId g = 0; g < n_; ++g) {
        if (kinds_[g] == GateKind::Dff) {
            ffIndex_[g] = nff_++;
            ffGates_.push_back(g);
            ffLatch_.push_back(net.gate(g).latch);
            ffInit_.push_back(net.gate(g).init ? 1 : 0);
        }
    }

    outputs_ = net.outputs();
}

} // namespace scal::sim
