#include "sim/cone.hh"

#include <algorithm>

namespace scal::sim
{

using namespace netlist;

void
sortByTopo(const FlatNetlist &flat, std::vector<GateId> &gates)
{
    std::sort(gates.begin(), gates.end(), [&flat](GateId a, GateId b) {
        return flat.topoPos(a) < flat.topoPos(b);
    });
}

FanoutCones::FanoutCones(const FlatNetlist &flat) : flat_(flat)
{
    const std::size_t n = static_cast<std::size_t>(flat.numGates());
    memo_.resize(n);
    built_.assign(n, 0);
    visit_.assign(n, 0);
    stack_.reserve(n);
    union_.reserve(n);
}

void
FanoutCones::bumpVisit()
{
    if (++visitEpoch_ == 0) { // wraparound: stale stamps would alias
        std::fill(visit_.begin(), visit_.end(), 0);
        visitEpoch_ = 1;
    }
}

void
FanoutCones::walk(std::vector<GateId> &out)
{
    while (!stack_.empty()) {
        const GateId g = stack_.back();
        stack_.pop_back();
        out.push_back(g);
        const GateId *cs = flat_.consumers(g);
        for (int k = 0; k < flat_.fanoutDegree(g); ++k) {
            const auto c = static_cast<std::size_t>(cs[k]);
            if (visit_[c] != visitEpoch_) {
                visit_[c] = visitEpoch_;
                stack_.push_back(cs[k]);
            }
        }
    }
}

const std::vector<GateId> &
FanoutCones::reach(const GateId *seeds, std::size_t n)
{
    bumpVisit();
    union_.clear();
    stack_.clear();
    for (std::size_t i = 0; i < n; ++i) {
        const auto s = static_cast<std::size_t>(seeds[i]);
        if (visit_[s] != visitEpoch_) {
            visit_[s] = visitEpoch_;
            stack_.push_back(seeds[i]);
        }
    }
    walk(union_);
    return union_;
}

void
FanoutCones::buildCone(GateId seed)
{
    bumpVisit();
    std::vector<GateId> &c = memo_[static_cast<std::size_t>(seed)];
    stack_.clear();
    stack_.push_back(seed);
    visit_[static_cast<std::size_t>(seed)] = visitEpoch_;
    walk(c);
    sortByTopo(flat_, c);
    built_[static_cast<std::size_t>(seed)] = 1;
}

ReplayScratch::ReplayScratch(const FlatNetlist &flat,
                             const detail::WideKernels &k)
    : flat_(flat), k_(&k), W_(static_cast<std::size_t>(k.laneWords))
{
    const std::size_t n = static_cast<std::size_t>(flat.numGates());
    faulty_.assign(n * W_, 0);
    stamp_.assign(n, 0);
    forced_.assign(n, 0);
    flagged_.assign(n, 0);
    pending_.assign((n + 63) / 64, 0);
    pendLo_ = pending_.size();
    ptrs_.assign(static_cast<std::size_t>(std::max(1, flat.maxArity())),
                 nullptr);
}

void
ReplayScratch::resetStamps()
{
    std::fill(stamp_.begin(), stamp_.end(), 0);
    std::fill(forced_.begin(), forced_.end(), 0);
    std::fill(flagged_.begin(), flagged_.end(), 0);
    epoch_ = 1;
}

void
ReplayScratch::clearPending()
{
    std::fill(pending_.begin() + static_cast<std::ptrdiff_t>(pendLo_),
              pending_.begin() + static_cast<std::ptrdiff_t>(pendHi_), 0);
    pendLo_ = pending_.size();
    pendHi_ = 0;
}

} // namespace scal::sim
