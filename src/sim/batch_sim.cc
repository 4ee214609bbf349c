#include "sim/batch_sim.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/cone.hh"

namespace scal::sim
{

using namespace netlist;

namespace
{

/** Gate kinds whose path sensitivity the CPT backtrace can compute
 *  word-parallel. Maj/Min qualify at arity 3 only (the Chapter 6
 *  modules); anything else disqualifies its whole FFR. */
bool
cptSupported(GateKind kind, int arity)
{
    switch (kind) {
      case GateKind::Input:
      case GateKind::Const0:
      case GateKind::Const1:
      case GateKind::Buf:
      case GateKind::Not:
      case GateKind::And:
      case GateKind::Nand:
      case GateKind::Or:
      case GateKind::Nor:
      case GateKind::Xor:
      case GateKind::Xnor:
        return true;
      case GateKind::Maj:
      case GateKind::Min:
        return arity == 3;
      default:
        return false;
    }
}

} // namespace

FaultBatchPlan::FaultBatchPlan(const FlatNetlist &flat,
                               const std::vector<Fault> &all_faults,
                               const std::vector<int> &class_of,
                               const std::vector<Fault> &representatives,
                               const std::vector<std::uint8_t> &pruned,
                               bool enable_cpt)
    : flat_(&flat), cpt_(enable_cpt)
{
    if (flat.numFlipFlops() > 0)
        throw std::invalid_argument(
            "fault batch plan needs a combinational netlist");
    const int n = flat.numGates();
    const int nc = static_cast<int>(representatives.size());

    // FFR roots: a gate whose line fans out (or is tapped, or is
    // dead) roots its own region; a single-consumer untapped line
    // belongs to its consumer's region. Reverse topological order
    // guarantees the consumer is resolved first.
    rootOf_.assign(static_cast<std::size_t>(n), kNoGate);
    const std::vector<GateId> &topo = flat.topoOrder();
    for (std::size_t i = topo.size(); i-- > 0;) {
        const GateId g = topo[i];
        const bool root =
            !(flat.fanoutDegree(g) == 1 && flat.numTaps(g) == 0);
        rootOf_[g] = root ? g : rootOf_[flat.consumers(g)[0]];
    }

    std::vector<std::uint8_t> cptOk(static_cast<std::size_t>(n), 1);
    for (GateId g = 0; g < n; ++g)
        if (!cptSupported(flat.kind(g), flat.arity(g)))
            cptOk[rootOf_[g]] = 0;

    // Route every class from its members. Equivalence chains stay
    // inside one FFR (they only ever link a gate's input-line fault
    // to that gate's own stem, and a root's stem is never linked
    // upward), so each class has a unique owning root; tap faults are
    // never united and form singleton classes on their driving root.
    route_.assign(static_cast<std::size_t>(nc), ClassRoute::Sim);
    simFault_.assign(static_cast<std::size_t>(nc), Fault{});
    groupOf_.assign(static_cast<std::size_t>(nc), -1);
    std::vector<GateId> groupRootOf(static_cast<std::size_t>(nc), kNoGate);
    std::vector<std::uint8_t> hasRootStem(static_cast<std::size_t>(nc), 0);
    std::vector<std::uint8_t> hasTap(static_cast<std::size_t>(nc), 0);
    std::vector<Fault> anchorFault(static_cast<std::size_t>(nc));
    for (std::size_t i = 0; i < all_faults.size(); ++i) {
        const Fault &f = all_faults[i];
        const int c = class_of[i];
        GateId grp;
        if (f.site.consumer == FaultSite::kOutputTap) {
            grp = f.site.driver;
            if (!hasTap[c]) {
                hasTap[c] = 1;
                anchorFault[c] = f;
            }
        } else {
            const GateId site_gate =
                f.site.isStem() ? f.site.driver : f.site.consumer;
            grp = rootOf_[site_gate];
            if (f.site.isStem() && rootOf_[f.site.driver] == f.site.driver &&
                !hasRootStem[c]) {
                hasRootStem[c] = 1;
                anchorFault[c] = f;
            }
        }
        if (groupRootOf[c] == kNoGate)
            groupRootOf[c] = grp;
    }
    for (int c = 0; c < nc; ++c) {
        if (!pruned.empty() && pruned[c]) {
            route_[c] = ClassRoute::Pruned;
            simFault_[c] = representatives[c];
        } else if (hasRootStem[c]) {
            route_[c] = ClassRoute::Flip;
            simFault_[c] = anchorFault[c];
        } else if (hasTap[c]) {
            route_[c] = ClassRoute::Tap;
            simFault_[c] = anchorFault[c];
        } else if (cpt_ && groupRootOf[c] != kNoGate &&
                   cptOk[groupRootOf[c]]) {
            route_[c] = ClassRoute::Cpt;
            simFault_[c] = representatives[c];
        } else {
            route_[c] = ClassRoute::Sim;
            simFault_[c] = representatives[c];
        }
    }

    // Groups: the distinct owning roots, ascending gate id, and the
    // per-group class lists (ascending class id within a group).
    std::vector<int> groupIdxOfRoot(static_cast<std::size_t>(n), -1);
    for (int c = 0; c < nc; ++c)
        if (groupRootOf[c] != kNoGate)
            groupIdxOfRoot[groupRootOf[c]] = 0;
    for (GateId g = 0; g < n; ++g) {
        if (groupIdxOfRoot[g] == 0) {
            groupIdxOfRoot[g] = static_cast<int>(groupRoots_.size());
            groupRoots_.push_back(g);
        }
    }
    const int ng = static_cast<int>(groupRoots_.size());
    for (int c = 0; c < nc; ++c)
        groupOf_[c] = groupIdxOfRoot[groupRootOf[c]];

    classOff_.assign(static_cast<std::size_t>(ng) + 1, 0);
    for (int c = 0; c < nc; ++c)
        ++classOff_[static_cast<std::size_t>(groupOf_[c]) + 1];
    for (int g = 0; g < ng; ++g)
        classOff_[static_cast<std::size_t>(g) + 1] +=
            classOff_[static_cast<std::size_t>(g)];
    classList_.resize(static_cast<std::size_t>(nc));
    {
        std::vector<std::int32_t> cursor(classOff_.begin(),
                                         classOff_.end() - 1);
        for (int c = 0; c < nc; ++c)
            classList_[static_cast<std::size_t>(
                cursor[static_cast<std::size_t>(groupOf_[c])]++)] = c;
    }

    groupCpt_.assign(static_cast<std::size_t>(ng), 0);
    flipNeed_.assign(static_cast<std::size_t>(ng), 0);
    for (int c = 0; c < nc; ++c) {
        if (route_[c] == ClassRoute::Cpt)
            groupCpt_[groupOf_[c]] = 1;
        else if (route_[c] == ClassRoute::Flip)
            flipNeed_[groupOf_[c]] = 1;
    }

    // Fanout cones (topo-sorted) and owned outputs per Sim class;
    // root cones and reachable outputs per Flip/Cpt group. Each cone
    // is copied into the CSR arrays, so none is memoized.
    FanoutCones cones(flat);

    coneOff_.assign(static_cast<std::size_t>(nc) + 1, 0);
    ownOff_.assign(static_cast<std::size_t>(nc) + 1, 0);
    for (int c = 0; c < nc; ++c) {
        if (route_[c] == ClassRoute::Sim) {
            const Fault &f = simFault_[c];
            const GateId seed =
                f.site.isStem() ? f.site.driver : f.site.consumer;
            const std::vector<GateId> &cone = cones.unionCone(&seed, 1);
            coneData_.insert(coneData_.end(), cone.begin(), cone.end());
            for (GateId g : cone) {
                const std::int32_t *taps = flat.taps(g);
                for (int t = 0; t < flat.numTaps(g); ++t)
                    ownData_.push_back(taps[t]);
            }
        }
        coneOff_[static_cast<std::size_t>(c) + 1] =
            static_cast<std::int32_t>(coneData_.size());
        ownOff_[static_cast<std::size_t>(c) + 1] =
            static_cast<std::int32_t>(ownData_.size());
    }

    rootTapOff_.assign(static_cast<std::size_t>(ng) + 1, 0);
    groupConeOff_.assign(static_cast<std::size_t>(ng) + 1, 0);
    for (int g = 0; g < ng; ++g) {
        if (flipNeed_[g] || groupCpt_[g]) {
            const std::vector<GateId> &cone =
                cones.unionCone(&groupRoots_[g], 1);
            if (flipNeed_[g])
                groupConeData_.insert(groupConeData_.end(), cone.begin(),
                                      cone.end());
            for (GateId cg : cone) {
                const std::int32_t *taps = flat.taps(cg);
                for (int t = 0; t < flat.numTaps(cg); ++t)
                    rootTapData_.push_back(taps[t]);
            }
        }
        rootTapOff_[static_cast<std::size_t>(g) + 1] =
            static_cast<std::int32_t>(rootTapData_.size());
        groupConeOff_[static_cast<std::size_t>(g) + 1] =
            static_cast<std::int32_t>(groupConeData_.size());
    }

    // FFR gate lists (topo-ascending) for Cpt groups, via one pass
    // over the topological order.
    ffrOff_.assign(static_cast<std::size_t>(ng) + 1, 0);
    for (GateId g = 0; g < n; ++g) {
        const int gi = groupIdxOfRoot[rootOf_[g]];
        if (gi >= 0 && groupCpt_[gi])
            ++ffrOff_[static_cast<std::size_t>(gi) + 1];
    }
    for (int g = 0; g < ng; ++g)
        ffrOff_[static_cast<std::size_t>(g) + 1] +=
            ffrOff_[static_cast<std::size_t>(g)];
    ffrData_.resize(static_cast<std::size_t>(ffrOff_.back()));
    {
        std::vector<std::int32_t> cursor(ffrOff_.begin(),
                                         ffrOff_.end() - 1);
        for (const GateId g : topo) {
            const int gi = groupIdxOfRoot[rootOf_[g]];
            if (gi >= 0 && groupCpt_[gi])
                ffrData_[static_cast<std::size_t>(
                    cursor[static_cast<std::size_t>(gi)]++)] = g;
        }
    }

    // Heuristic per-group cost: replay work for the flip unit and Sim
    // classes, fold work for the analytic routes, two backtrace
    // passes per Cpt group. Only relative magnitudes matter (weighted
    // sharding).
    groupCost_.assign(static_cast<std::size_t>(ng), 0);
    for (int c = 0; c < nc; ++c) {
        const int gi = groupOf_[c];
        const std::uint64_t tapRange = static_cast<std::uint64_t>(
            rootTapOff_[static_cast<std::size_t>(gi) + 1] -
            rootTapOff_[static_cast<std::size_t>(gi)]);
        switch (route_[c]) {
          case ClassRoute::Sim:
            groupCost_[gi] +=
                4 + 2 * static_cast<std::uint64_t>(
                            coneOff_[static_cast<std::size_t>(c) + 1] -
                            coneOff_[static_cast<std::size_t>(c)]);
            break;
          case ClassRoute::Flip:
            groupCost_[gi] += 1 + tapRange;
            break;
          case ClassRoute::Cpt:
            groupCost_[gi] += 2 + tapRange;
            break;
          case ClassRoute::Tap:
          case ClassRoute::Pruned:
            groupCost_[gi] += 1;
            break;
        }
    }
    for (int g = 0; g < ng; ++g) {
        if (flipNeed_[g])
            groupCost_[g] +=
                4 + 2 * static_cast<std::uint64_t>(
                            groupConeOff_[static_cast<std::size_t>(g) + 1] -
                            groupConeOff_[static_cast<std::size_t>(g)]) +
                2 * static_cast<std::uint64_t>(
                        rootTapOff_[static_cast<std::size_t>(g) + 1] -
                        rootTapOff_[static_cast<std::size_t>(g)]);
        if (groupCpt_[g])
            groupCost_[g] += 2 * static_cast<std::uint64_t>(
                                     ffrOff_[static_cast<std::size_t>(g) + 1] -
                                     ffrOff_[static_cast<std::size_t>(g)]);
    }
}

BatchPlanStats
FaultBatchPlan::stats() const
{
    BatchPlanStats s;
    s.groups = numGroups();
    for (const ClassRoute r : route_) {
        switch (r) {
          case ClassRoute::Flip:   ++s.flipClasses; break;
          case ClassRoute::Sim:    ++s.simClasses; break;
          case ClassRoute::Tap:    ++s.tapClasses; break;
          case ClassRoute::Cpt:    ++s.cptClasses; break;
          case ClassRoute::Pruned: ++s.prunedClasses; break;
        }
    }
    return s;
}

BatchClassifier::BatchClassifier(FaultSimulator &sim,
                                 const FaultBatchPlan &plan, bool batching)
    : sim_(sim), plan_(plan), batching_(batching)
{
    const FlatNetlist &flat = plan.flat();
    const std::size_t n = static_cast<std::size_t>(flat.numGates());
    const std::size_t W = static_cast<std::size_t>(sim.laneWords());
    lastBatch_.assign(n, -1);
    for (int p = 0; p < 2; ++p)
        crit_[p].assign(n * W, 0);
    errFlip_.assign(
        static_cast<std::size_t>(plan.rootTapOff_.back()) * 2 * W, 0);
    sensScratch_.assign(
        (3 * static_cast<std::size_t>(std::max(1, flat.maxArity())) + 2) * W,
        0);
}

void
BatchClassifier::setRange(int group_begin, int group_end)
{
    g0_ = group_begin;
    g1_ = group_end;
    flipBatches_.clear();
    batches_.clear();

    // Greedy conflict-free coloring: a unit joins the first batch
    // above every batch that already touches any gate of its cone.
    // Assignments per gate only ever increase, so members of one
    // batch are pairwise cone-disjoint — the exactness condition for
    // superposed injection. Flip units and residual Sim classes are
    // colored independently (they run through different passes).
    std::fill(lastBatch_.begin(), lastBatch_.end(), -1);
    for (int gi = g0_; gi < g1_; ++gi) {
        if (!plan_.flipNeed_[gi])
            continue;
        const GateId *cone =
            plan_.groupConeData_.data() + plan_.groupConeOff_[gi];
        const std::size_t len = static_cast<std::size_t>(
            plan_.groupConeOff_[static_cast<std::size_t>(gi) + 1] -
            plan_.groupConeOff_[gi]);
        std::int32_t b = 0;
        if (batching_) {
            for (std::size_t i = 0; i < len; ++i)
                b = std::max(b, lastBatch_[cone[i]] + 1);
        } else {
            b = static_cast<std::int32_t>(flipBatches_.size());
        }
        if (static_cast<std::size_t>(b) >= flipBatches_.size())
            flipBatches_.emplace_back();
        FlipBatch &fb = flipBatches_[static_cast<std::size_t>(b)];
        fb.roots.push_back(plan_.groupRoots_[gi]);
        fb.groups.push_back(gi);
        for (std::size_t i = 0; i < len; ++i)
            lastBatch_[cone[i]] = b;
    }

    std::fill(lastBatch_.begin(), lastBatch_.end(), -1);
    const std::size_t b0 = plan_.classOffset(g0_);
    const std::size_t b1 = plan_.classOffset(g1_);
    for (std::size_t pos = b0; pos < b1; ++pos) {
        const int c = plan_.classList_[pos];
        if (plan_.route_[c] != ClassRoute::Sim)
            continue;
        const GateId *cone =
            plan_.coneData_.data() + plan_.coneOff_[c];
        const std::size_t len = static_cast<std::size_t>(
            plan_.coneOff_[static_cast<std::size_t>(c) + 1] -
            plan_.coneOff_[c]);
        std::int32_t b = 0;
        if (batching_) {
            for (std::size_t i = 0; i < len; ++i)
                b = std::max(b, lastBatch_[cone[i]] + 1);
        } else {
            b = static_cast<std::int32_t>(batches_.size());
        }
        if (static_cast<std::size_t>(b) >= batches_.size())
            batches_.emplace_back();
        Batch &bt = batches_[static_cast<std::size_t>(b)];
        bt.faults.push_back(plan_.simFault_[c]);
        bt.members.push_back({c, pos});
        for (std::size_t i = 0; i < len; ++i)
            lastBatch_[cone[i]] = b;
    }
}

void
BatchClassifier::computeSens(GateId g, const std::uint64_t *lines,
                             std::uint64_t *sens)
{
    const FlatNetlist &flat = plan_.flat();
    const std::size_t W = static_cast<std::size_t>(sim_.laneWords());
    const int ar = flat.arity(g);
    const GateId *in = flat.fanins(g);
    switch (flat.kind(g)) {
      case GateKind::Buf:
      case GateKind::Not:
      case GateKind::Xor:
      case GateKind::Xnor:
        for (std::size_t i = 0; i < static_cast<std::size_t>(ar) * W; ++i)
            sens[i] = ~std::uint64_t{0};
        break;
      case GateKind::And:
      case GateKind::Nand:
      case GateKind::Or:
      case GateKind::Nor: {
        // sens(k) = AND over the other pins of their non-controlling
        // indicator: the good value for AND-like gates, its
        // complement for OR-like ones. Prefix/suffix products.
        const bool orLike = flat.kind(g) == GateKind::Or ||
                            flat.kind(g) == GateKind::Nor;
        if (ar == 2) {
            // The common case, without the prefix/suffix passes: each
            // pin's sensitivity is the other pin's indicator.
            const std::uint64_t *v0 =
                lines + static_cast<std::size_t>(in[0]) * W;
            const std::uint64_t *v1 =
                lines + static_cast<std::size_t>(in[1]) * W;
            const std::uint64_t flip = orLike ? ~std::uint64_t{0} : 0;
            for (std::size_t w = 0; w < W; ++w) {
                sens[w] = v1[w] ^ flip;
                sens[W + w] = v0[w] ^ flip;
            }
            break;
        }
        std::uint64_t *pre = sensScratch_.data() +
                             static_cast<std::size_t>(ar) * W;
        std::uint64_t *suf = pre + (static_cast<std::size_t>(ar) + 1) * W;
        for (std::size_t w = 0; w < W; ++w) {
            pre[w] = ~std::uint64_t{0};
            suf[static_cast<std::size_t>(ar) * W + w] = ~std::uint64_t{0};
        }
        for (int k = 0; k < ar; ++k) {
            const std::uint64_t *v =
                lines + static_cast<std::size_t>(in[k]) * W;
            for (std::size_t w = 0; w < W; ++w) {
                const std::uint64_t vv = orLike ? ~v[w] : v[w];
                pre[(static_cast<std::size_t>(k) + 1) * W + w] =
                    pre[static_cast<std::size_t>(k) * W + w] & vv;
            }
        }
        for (int k = ar; k-- > 0;) {
            const std::uint64_t *v =
                lines + static_cast<std::size_t>(in[k]) * W;
            for (std::size_t w = 0; w < W; ++w) {
                const std::uint64_t vv = orLike ? ~v[w] : v[w];
                suf[static_cast<std::size_t>(k) * W + w] =
                    suf[(static_cast<std::size_t>(k) + 1) * W + w] & vv;
            }
        }
        for (int k = 0; k < ar; ++k)
            for (std::size_t w = 0; w < W; ++w)
                sens[static_cast<std::size_t>(k) * W + w] =
                    pre[static_cast<std::size_t>(k) * W + w] &
                    suf[(static_cast<std::size_t>(k) + 1) * W + w];
        break;
      }
      case GateKind::Maj:
      case GateKind::Min: {
        // Arity 3 (the plan disqualifies other arities): flipping a
        // pin matters exactly where the other two disagree.
        const std::uint64_t *a = lines + static_cast<std::size_t>(in[0]) * W;
        const std::uint64_t *b = lines + static_cast<std::size_t>(in[1]) * W;
        const std::uint64_t *c = lines + static_cast<std::size_t>(in[2]) * W;
        for (std::size_t w = 0; w < W; ++w) {
            sens[0 * W + w] = b[w] ^ c[w];
            sens[1 * W + w] = a[w] ^ c[w];
            sens[2 * W + w] = a[w] ^ b[w];
        }
        break;
      }
      default:
        for (std::size_t i = 0; i < static_cast<std::size_t>(ar) * W; ++i)
            sens[i] = 0;
        break;
    }
}

void
BatchClassifier::computeCrit(int group)
{
    const FlatNetlist &flat = plan_.flat();
    const std::size_t W = static_cast<std::size_t>(sim_.laneWords());
    const GateId root = plan_.groupRoots_[group];
    const std::int32_t lo = plan_.ffrOff_[group];
    const std::int32_t hi = plan_.ffrOff_[static_cast<std::size_t>(group) + 1];
    std::uint64_t *sens = sensScratch_.data();
    for (int p = 0; p < 2; ++p) {
        const std::uint64_t *lines = sim_.goodLines(p).data();
        std::uint64_t *crit = crit_[p].data();
        // Reverse topological backtrace from the root: every interior
        // line's criticality is its consumer's criticality AND the
        // consumer's sensitivity to that pin — exact because the path
        // to the root is unique inside the FFR tree.
        for (std::int32_t idx = hi; idx-- > lo;) {
            const GateId g = plan_.ffrData_[idx];
            if (g == root) {
                for (std::size_t w = 0; w < W; ++w)
                    crit[static_cast<std::size_t>(g) * W + w] =
                        ~std::uint64_t{0};
            }
            const int ar = flat.arity(g);
            if (ar == 0)
                continue;
            const GateId *in = flat.fanins(g);
            bool any_interior = false;
            for (int k = 0; k < ar && !any_interior; ++k)
                any_interior = plan_.rootOf_[in[k]] == root;
            if (!any_interior)
                continue;
            computeSens(g, lines, sens);
            for (int k = 0; k < ar; ++k) {
                const GateId d = in[k];
                if (plan_.rootOf_[d] != root)
                    continue;
                for (std::size_t w = 0; w < W; ++w)
                    crit[static_cast<std::size_t>(d) * W + w] =
                        crit[static_cast<std::size_t>(g) * W + w] &
                        sens[static_cast<std::size_t>(k) * W + w];
            }
        }
    }
}

void
BatchClassifier::computeAgg(int group, FlipAgg &agg)
{
    // Every Flip/Cpt fold of this group ORs masks of the form
    // (a & f0_t) op (b & f1_t) over the same tap slots, with (a, b)
    // class-constant. Expanding the ops slot-wise shows the whole
    // fold is a function of five slot aggregates only:
    //   anyErr    = a&X | b&Y                      X = OR f0,
    //   incorrect = a&b&R                          Y = OR f1,
    //   nonAlt    = a&~b&X | b&~a&Y | a&P | b&Q    R = OR (f0 & f1),
    //                                              P = OR (f0 & ~f1),
    //                                              Q = OR (f1 & ~f0),
    // so the per-slot work is paid once per group, not per class.
    const std::size_t W = static_cast<std::size_t>(sim_.laneWords());
    for (std::size_t w = 0; w < W; ++w)
        agg.X[w] = agg.Y[w] = agg.P[w] = agg.Q[w] = agg.R[w] = 0;
    const std::int32_t t0 = plan_.rootTapOff_[group];
    const std::int32_t t1 =
        plan_.rootTapOff_[static_cast<std::size_t>(group) + 1];
    for (std::int32_t t = t0; t < t1; ++t) {
        const std::uint64_t *flip0 =
            errFlip_.data() + static_cast<std::size_t>(t) * 2 * W;
        const std::uint64_t *flip1 = flip0 + W;
        for (std::size_t w = 0; w < W; ++w) {
            agg.X[w] |= flip0[w];
            agg.Y[w] |= flip1[w];
            agg.P[w] |= flip0[w] & ~flip1[w];
            agg.Q[w] |= flip1[w] & ~flip0[w];
            agg.R[w] |= flip0[w] & flip1[w];
        }
    }
}

void
BatchClassifier::foldAgg(const std::uint64_t *a, const std::uint64_t *b,
                         const FlipAgg &agg, WideMasks &m)
{
    const std::size_t W = static_cast<std::size_t>(sim_.laneWords());
    for (std::size_t w = 0; w < W; ++w) {
        const std::uint64_t ax = a[w] & agg.X[w];
        const std::uint64_t by = b[w] & agg.Y[w];
        m.anyErr[w] |= ax | by;
        m.nonAlt[w] |= (ax & ~b[w]) | (by & ~a[w]) | (a[w] & agg.P[w]) |
                       (b[w] & agg.Q[w]);
        m.incorrect[w] |= a[w] & b[w] & agg.R[w];
    }
}

void
BatchClassifier::foldFlip(int cls, const FlipAgg &agg, WideMasks &m)
{
    // A root stem stuck-at-v is lane-wise identical to the flip
    // wherever the good root value is ~v and a no-op elsewhere, so
    // its error at every output is excitation_v & flip response.
    const std::size_t W = static_cast<std::size_t>(sim_.laneWords());
    const Fault &f = plan_.simFault_[cls];
    std::uint64_t exc[2][kMaxLaneWords];
    for (int p = 0; p < 2; ++p) {
        const std::uint64_t *gl = sim_.goodLines(p).data() +
                                  static_cast<std::size_t>(f.site.driver) * W;
        for (std::size_t w = 0; w < W; ++w)
            exc[p][w] = f.value ? ~gl[w] : gl[w];
    }
    foldAgg(exc[0], exc[1], agg, m);
}

void
BatchClassifier::foldCpt(int cls, const FlipAgg &agg, WideMasks &m)
{
    const std::size_t W = static_cast<std::size_t>(sim_.laneWords());
    const Fault &f = plan_.simFault_[cls];
    std::uint64_t root_err[2][kMaxLaneWords];
    for (int p = 0; p < 2; ++p) {
        const std::uint64_t *lines = sim_.goodLines(p).data();
        const std::uint64_t *crit = crit_[p].data();
        const std::uint64_t *cw;
        std::uint64_t pin_crit[kMaxLaneWords];
        if (f.site.isStem() ||
            plan_.rootOf_[f.site.driver] ==
                plan_.rootOf_[f.site.consumer]) {
            // Interior driver: inside the FFR the line has exactly one
            // consumer edge, so the branch criticality IS the driver's
            // line criticality the backtrace already produced.
            cw = crit + static_cast<std::size_t>(f.site.driver) * W;
        } else {
            computeSens(f.site.consumer, lines, sensScratch_.data());
            const std::uint64_t *base =
                crit + static_cast<std::size_t>(f.site.consumer) * W;
            const std::uint64_t *sens =
                sensScratch_.data() +
                static_cast<std::size_t>(f.site.pin) * W;
            for (std::size_t w = 0; w < W; ++w)
                pin_crit[w] = base[w] & sens[w];
            cw = pin_crit;
        }
        const std::uint64_t *gl =
            lines + static_cast<std::size_t>(f.site.driver) * W;
        for (std::size_t w = 0; w < W; ++w) {
            const std::uint64_t exc = f.value ? ~gl[w] : gl[w];
            root_err[p][w] = exc & cw[w];
        }
    }
    foldAgg(root_err[0], root_err[1], agg, m);
}

void
BatchClassifier::classifyBlock(const Emit &emit)
{
    const FlatNetlist &flat = plan_.flat();
    const std::size_t W = static_cast<std::size_t>(sim_.laneWords());
    const std::size_t no = static_cast<std::size_t>(flat.numOutputs());
    const std::uint64_t *g0 = sim_.goodOutputs(0).data();
    const std::uint64_t *g1 = sim_.goodOutputs(1).data();
    const std::size_t b0 = plan_.classOffset(g0_);
    const std::size_t b1 = plan_.classOffset(g1_);

    // Exactness gate (see file comment): the analytic folds assume a
    // zero fault-free baseline, which holds exactly when the good
    // outputs alternate perfectly on this block.
    bool self_dual = true;
    for (std::size_t i = 0; i < no * W && self_dual; ++i)
        self_dual = g1[i] == ~g0[i];
    if (!self_dual) {
        for (std::size_t pos = b0; pos < b1; ++pos) {
            const int c = plan_.classList_[pos];
            emit(pos, sim_.classifyAlternatingWide(plan_.simFault_[c]));
        }
        return;
    }

    // Flip passes: one replay per batch per phase carries BOTH
    // stuck-at polarities of every member root. No output assembly —
    // the flip responses are read straight off the replayed lines of
    // each root's reachable outputs into the per-tap slots the
    // analytic folds consume below. Slots of groups with no Flip
    // class are never written and stay all-zero (exact: both root
    // stems are dominance-pruned, so the flip response is null).
    const std::uint64_t *gl[2] = {sim_.goodLines(0).data(),
                                  sim_.goodLines(1).data()};
    for (const FlipBatch &fb : flipBatches_) {
        for (int p = 0; p < 2; ++p) {
            sim_.replayFlips(fb.roots.data(), fb.roots.size(), p);
            for (const int gi : fb.groups) {
                const std::int32_t t0 = plan_.rootTapOff_[gi];
                const std::int32_t t1 =
                    plan_.rootTapOff_[static_cast<std::size_t>(gi) + 1];
                for (std::int32_t t = t0; t < t1; ++t) {
                    const GateId d = flat.output(plan_.rootTapData_[t]);
                    const std::uint64_t *fv = sim_.lineValue(d, p);
                    const std::uint64_t *gv =
                        gl[p] + static_cast<std::size_t>(d) * W;
                    std::uint64_t *flip =
                        errFlip_.data() +
                        (static_cast<std::size_t>(t) * 2 +
                         static_cast<std::size_t>(p)) *
                            W;
                    for (std::size_t w = 0; w < W; ++w)
                        flip[w] = fv[w] ^ gv[w];
                }
            }
        }
    }

    // Residual simulation passes: one per batch, two phases, with
    // per-member folds restricted to the outputs each member's cone
    // drives (disjointness makes the attribution exact).
    for (const Batch &bt : batches_) {
        const std::uint64_t *f0 =
            sim_.faultOutputs(bt.faults.data(), bt.faults.size(), 0).data();
        const std::uint64_t *f1 =
            sim_.faultOutputs(bt.faults.data(), bt.faults.size(), 1).data();
        for (const Member &mb : bt.members) {
            WideMasks m;
            const std::int32_t o0 = plan_.ownOff_[mb.cls];
            const std::int32_t o1 =
                plan_.ownOff_[static_cast<std::size_t>(mb.cls) + 1];
            for (std::int32_t oi = o0; oi < o1; ++oi) {
                const std::size_t j =
                    static_cast<std::size_t>(plan_.ownData_[oi]) * W;
                for (std::size_t w = 0; w < W; ++w) {
                    const std::uint64_t e1 = f0[j + w] ^ g0[j + w];
                    const std::uint64_t e2 = f1[j + w] ^ g1[j + w];
                    m.anyErr[w] |= e1 | e2;
                    m.nonAlt[w] |= e1 ^ e2;
                    m.incorrect[w] |= e1 & e2;
                }
            }
            emit(mb.pos, m);
        }
    }

    // Analytic routes: output-tap classes fold directly against the
    // good outputs; Flip classes fold excitation against the root
    // flip responses gathered above, CPT classes additionally gate on
    // the in-FFR criticality backtrace.
    FlipAgg agg;
    for (int gi = g0_; gi < g1_; ++gi) {
        if (plan_.groupCpt_[gi])
            computeCrit(gi);
        if (plan_.flipNeed_[gi] || plan_.groupCpt_[gi])
            computeAgg(gi, agg);
        const std::size_t lo = plan_.classOffset(gi);
        const std::size_t hi = plan_.classOffset(gi + 1);
        for (std::size_t pos = lo; pos < hi; ++pos) {
            const int c = plan_.classList_[pos];
            if (plan_.route_[c] == ClassRoute::Tap) {
                const Fault &f = plan_.simFault_[c];
                WideMasks m;
                if (f.site.pin >= 0 && f.site.pin < flat.numOutputs() &&
                    flat.output(f.site.pin) == f.site.driver) {
                    const std::uint64_t v =
                        f.value ? ~std::uint64_t{0} : 0;
                    const std::size_t j =
                        static_cast<std::size_t>(f.site.pin) * W;
                    for (std::size_t w = 0; w < W; ++w) {
                        const std::uint64_t e1 = v ^ g0[j + w];
                        const std::uint64_t e2 = v ^ g1[j + w];
                        m.anyErr[w] |= e1 | e2;
                        m.nonAlt[w] |= e1 ^ e2;
                        m.incorrect[w] |= e1 & e2;
                    }
                }
                emit(pos, m);
            } else if (plan_.route_[c] == ClassRoute::Flip) {
                WideMasks m;
                foldFlip(c, agg, m);
                emit(pos, m);
            } else if (plan_.route_[c] == ClassRoute::Cpt) {
                WideMasks m;
                foldCpt(c, agg, m);
                emit(pos, m);
            }
        }
    }
}

} // namespace scal::sim
