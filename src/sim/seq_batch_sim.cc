#include "sim/seq_batch_sim.hh"

#include <algorithm>
#include <stdexcept>

#include "sim/cone.hh"

namespace scal::sim
{

using namespace netlist;
constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

namespace
{

/** The gate whose recomputation a site's injection perturbs first —
 *  the seed of its replay cone. */
GateId
injectionRoot(const FlatNetlist &flat, const SeqFaultSite &s)
{
    switch (s.kind) {
      case SeqFaultSite::Kind::Stem:
        return s.driver;
      case SeqFaultSite::Kind::Branch:
        return s.consumer;
      case SeqFaultSite::Kind::DffBranch:
        return flat.ffGate(s.ff);
      case SeqFaultSite::Kind::Tap:
        return flat.output(s.tap);
      case SeqFaultSite::Kind::Inert:
        break;
    }
    return kNoGate;
}

} // namespace

std::vector<std::uint64_t>
seqSiteCosts(const FlatNetlist &flat,
             const std::vector<SeqFaultSite> &sites)
{
    // Fanout-cone sizes, counted once per root (many sites share
    // one); no cone is sorted or kept.
    FanoutCones cones(flat);
    std::vector<std::uint64_t> coneSize(
        static_cast<std::size_t>(flat.numGates()), 0);
    std::vector<std::uint64_t> costs(sites.size());
    for (std::size_t i = 0; i < sites.size(); ++i) {
        const GateId root = injectionRoot(flat, sites[i]);
        if (root == kNoGate) {
            costs[i] = 1;
            continue;
        }
        std::uint64_t &size = coneSize[static_cast<std::size_t>(root)];
        if (size == 0) // a cone holds at least its root
            size = cones.reach(&root, 1).size();
        costs[i] = 1 + size;
    }
    return costs;
}

SeqBatchPlan
planSeqBatches(const FlatNetlist &flat,
               const std::vector<SeqFaultSite> &sites, int group_words,
               int batch_words)
{
    SeqBatchPlan plan;
    plan.groupWords = group_words;
    plan.groupsPerBatch =
        group_words > 0 ? batch_words / group_words : 0;
    const int F = plan.groupsPerBatch;
    if (F < 1 || group_words * F != batch_words)
        throw std::invalid_argument(
            "group words must divide the batch width");

    const int n = flat.numGates();
    const std::vector<std::uint64_t> costs = seqSiteCosts(flat, sites);

    // Lane-masked injections make any pairing sound (see the header
    // file comment), so packing is pure locality: sites sorted by the
    // topological position of their injection root share most of
    // their union replay cone with their batch-mates.
    std::vector<int> order(sites.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    const auto keyOf = [&](int i) {
        const GateId r =
            injectionRoot(flat, sites[static_cast<std::size_t>(i)]);
        return r == kNoGate ? n : flat.topoPos(r);
    };
    std::stable_sort(order.begin(), order.end(),
                     [&](int a, int b) { return keyOf(a) < keyOf(b); });

    for (std::size_t k = 0; k < order.size(); ++k) {
        if (k % static_cast<std::size_t>(F) == 0) {
            plan.batches.emplace_back();
            plan.weights.push_back(0);
        }
        const int i = order[k];
        plan.batches.back().push_back(i);
        plan.weights.back() += costs[static_cast<std::size_t>(i)];
    }
    return plan;
}

SeqFaultBatchSimulator::SeqFaultBatchSimulator(const SeqGoodTrace &trace,
                                               int group_words)
    : trace_(trace), flat_(trace.flat()), kernels_(&trace.kernels()),
      Wb_(trace.laneWords()), Wg_(group_words),
      F_(group_words > 0 ? trace.laneWords() / group_words : 0),
      cones_(flat_), scratch_(flat_, *kernels_)
{
    if (Wg_ < 1 || F_ < 1 || Wg_ * F_ != Wb_)
        throw std::invalid_argument(
            "group words must divide the trace width");
    const std::size_t W = static_cast<std::size_t>(Wb_);
    const std::size_t nff =
        static_cast<std::size_t>(flat_.numFlipFlops());
    const std::size_t no = static_cast<std::size_t>(flat_.numOutputs());
    sites_.assign(static_cast<std::size_t>(F_), SeqFaultSite{});
    retired_.assign(static_cast<std::size_t>(F_), 1);
    faultyState_.assign(nff * W, 0);
    injVals_.assign(static_cast<std::size_t>(F_) * W, 0);
    injMasks_.assign(static_cast<std::size_t>(F_) * W, 0);
    binj_.reserve(static_cast<std::size_t>(F_));
    stemVals_.assign(static_cast<std::size_t>(F_) * W, 0);
    stemMasks_.assign(static_cast<std::size_t>(F_) * W, 0);
    sinj_.reserve(static_cast<std::size_t>(F_));
    stemFresh_.reserve(static_cast<std::size_t>(F_));
    patchedFfs_.reserve(static_cast<std::size_t>(F_));
    outBuf_.assign(no * W, 0);
    buf0_.assign(no * W, 0);
    alarmBuf_.assign(W, 0);
    wrongBuf_.assign(W, 0);
    seeds_.reserve(nff + static_cast<std::size_t>(2 * F_));
    diverged_.reserve(nff);
    divergedNext_.reserve(nff);
}

void
SeqFaultBatchSimulator::beginBatch(const SeqFaultSite *sites, int nf,
                                   long ws, long we)
{
    if (nf < 0 || nf > F_)
        throw std::invalid_argument("batch overflows the lane groups");
    nf_ = nf;
    for (int f = 0; f < nf; ++f)
        sites_[static_cast<std::size_t>(f)] = sites[f];
    wstart_ = std::max<long>(0, ws);
    wend_ = we;
    live_ = 0;
    for (int f = 0; f < F_; ++f) {
        // Idle slots (partial batch) and malformed sites never touch
        // the machine: born retired, exactly like the oracle's Inert
        // no-op replay.
        const bool dead =
            f >= nf ||
            sites_[static_cast<std::size_t>(f)].kind ==
                SeqFaultSite::Kind::Inert;
        retired_[static_cast<std::size_t>(f)] = dead ? 1 : 0;
        if (!dead)
            ++live_;
    }
    const std::uint64_t *init = trace_.state(0);
    faultyState_.assign(
        init, init + static_cast<std::size_t>(flat_.numFlipFlops()) *
                         Wb_);
    diverged_.clear();
    t_ = 0;
    synced_ = false;
    pending_ = -1;
    have0_ = false;
    periodsSimulated_ = periodsSkipped_ = 0;
}

bool
SeqFaultBatchSimulator::anyLiveExcited(long t) const
{
    for (int f = 0; f < nf_; ++f)
        if (!retired_[static_cast<std::size_t>(f)] &&
            !seqSiteQuiet(trace_, t, sites_[static_cast<std::size_t>(f)],
                          f * Wg_, Wg_))
            return true;
    return false;
}

std::uint64_t
SeqFaultBatchSimulator::stepBatchPeriod(long t)
{
    const std::size_t W = static_cast<std::size_t>(Wb_);
    const std::uint64_t *good = trace_.lines(t);
    const std::uint64_t *good_out = trace_.outputs(t);
    const std::uint64_t *good_next = trace_.state(t + 1);
    const bool active = inWindow(t);
    const bool phase = trace_.phaseAt(t);
    const int no = flat_.numOutputs();
    const int nff = flat_.numFlipFlops();

    if (diverged_.empty()) {
        // Converged periods are skipped without maintaining
        // faultyState_; resync it before simulating (the latch loop
        // reads it for ineligible flip-flops).
        const std::uint64_t *st = trace_.state(t);
        std::copy(st, st + static_cast<std::size_t>(nff) * W,
                  faultyState_.begin());
    }

    scratch_.bump();
    std::int64_t frontier = 0;
    int last_branch_pos = -1;
    seeds_.clear();
    binj_.clear();
    sinj_.clear();
    stemFresh_.clear();

    // (1) Diverged flip-flop seeds first: faulty state overrides the
    // trace line of each diverged Dff for every lane at once.
    for (const std::int32_t ffi : diverged_) {
        const GateId g = flat_.ffGate(ffi);
        frontier += scratch_.pin(
            g, faultyState_.data() + static_cast<std::size_t>(ffi) * W);
        seeds_.push_back(g);
    }

    if (active) {
        // (2) Stem injections. A Dff driver keeps the whole-block
        // force of the per-fault path: replay never recomputes state
        // sources, and its non-own lanes already carry the exact
        // per-group seeded state (or good values). Any other driver
        // becomes a lane-masked WideStemInj: replay recomputes the
        // gate and re-applies only the fault's own lane group, so
        // batch-mates' divergence propagates through the pinned line.
        for (int f = 0; f < nf_; ++f) {
            if (retired_[static_cast<std::size_t>(f)])
                continue;
            const SeqFaultSite &s = sites_[static_cast<std::size_t>(f)];
            if (s.kind != SeqFaultSite::Kind::Stem)
                continue;
            const GateId d = s.driver;
            std::uint64_t *fv = scratch_.line(d);
            const std::uint64_t bc = s.value ? kAllOnes : 0;
            // Dffs are state sources replay never recomputes, and a
            // fanin-less gate (input, constant) has no combinational
            // evaluation and can receive no batch-mate divergence:
            // both keep the forced whole-block pin. Everything else
            // becomes a lane-masked dynamic injection.
            bool fresh;
            if (flat_.kind(d) == GateKind::Dff || flat_.arity(d) == 0) {
                fresh = !scratch_.forced(d);
                scratch_.force(d);
            } else {
                int ei = -1;
                for (std::size_t k = 0; k < sinj_.size(); ++k)
                    if (sinj_[k].gate == d)
                        ei = static_cast<int>(k);
                fresh = ei < 0;
                if (fresh) {
                    ei = static_cast<int>(sinj_.size());
                    const std::size_t slot =
                        static_cast<std::size_t>(ei) * W;
                    std::fill_n(stemMasks_.data() + slot, W, 0);
                    sinj_.push_back({d, stemVals_.data() + slot,
                                     stemMasks_.data() + slot});
                }
                const std::size_t slot =
                    static_cast<std::size_t>(ei) * W + f * Wg_;
                std::fill_n(stemVals_.data() + slot, Wg_, bc);
                std::fill_n(stemMasks_.data() + slot, Wg_, kAllOnes);
            }
            if (fresh) {
                const std::uint64_t *gd =
                    good + static_cast<std::size_t>(d) * W;
                std::copy(gd, gd + W, fv);
                stemFresh_.push_back(d);
            }
            // Seed the pin over the block so consumers (and the
            // latch pass) see it even before/without a replay.
            std::fill_n(fv + f * Wg_, Wg_, bc);
        }
        for (const GateId d : stemFresh_) {
            const std::uint64_t *fv = scratch_.line(d);
            if (!std::equal(fv, fv + W,
                            good + static_cast<std::size_t>(d) * W)) {
                scratch_.stamp(d);
                frontier += flat_.fanoutDegree(d);
            }
            seeds_.push_back(d);
        }

        // (3) Merged branch injections, one per (consumer, pin), each
        // masked to its member faults' lane groups: unmasked lanes
        // read the live (possibly diverged) driver block.
        for (int f = 0; f < nf_; ++f) {
            if (retired_[static_cast<std::size_t>(f)])
                continue;
            const SeqFaultSite &s = sites_[static_cast<std::size_t>(f)];
            if (s.kind != SeqFaultSite::Kind::Branch)
                continue;
            const GateId c = s.consumer;
            if (s.pin < 0 || s.pin >= flat_.arity(c) ||
                flat_.fanins(c)[s.pin] != s.driver)
                continue; // kernel-inert combination, as per fault
            std::uint64_t *val = nullptr, *msk = nullptr;
            bool seen_consumer = false;
            for (std::size_t k = 0; k < binj_.size(); ++k) {
                const detail::WideBranchInj &bi = binj_[k];
                if (bi.consumer == c) {
                    seen_consumer = true;
                    if (bi.pin == s.pin) {
                        val = injVals_.data() + k * W;
                        msk = injMasks_.data() + k * W;
                    }
                }
            }
            if (!val) {
                const std::size_t slot = binj_.size() * W;
                val = injVals_.data() + slot;
                msk = injMasks_.data() + slot;
                std::fill_n(msk, W, 0);
                binj_.push_back({c, s.driver, s.pin, val, msk});
                if (!seen_consumer)
                    seeds_.push_back(c);
                last_branch_pos =
                    std::max(last_branch_pos, flat_.topoPos(c));
            }
            const std::uint64_t bc = s.value ? kAllOnes : 0;
            std::fill_n(val + f * Wg_, Wg_, bc);
            std::fill_n(msk + f * Wg_, Wg_, kAllOnes);
        }
    }

    if (frontier != 0 || !binj_.empty()) {
        const std::vector<GateId> &work =
            seeds_.size() == 1
                ? cones_.cone(seeds_[0])
                : cones_.unionCone(seeds_.data(), seeds_.size());
        scratch_.replay(good, work.data(), work.size(), binj_.data(),
                        binj_.size(), sinj_.data(), sinj_.size(),
                        last_branch_pos, frontier);
    }

    // Output assembly; active tap faults override their own lane
    // group only (every other group keeps the assembled value).
    std::uint64_t *out = outBuf_.data();
    scratch_.assemble(good, out);
    if (active) {
        for (int f = 0; f < nf_; ++f) {
            if (retired_[static_cast<std::size_t>(f)])
                continue;
            const SeqFaultSite &s = sites_[static_cast<std::size_t>(f)];
            if (s.kind != SeqFaultSite::Kind::Tap)
                continue;
            std::uint64_t *dst =
                out + static_cast<std::size_t>(s.tap) * W;
            const std::uint64_t bc = s.value ? kAllOnes : 0;
            std::fill_n(dst + f * Wg_, Wg_, bc);
        }
    }
    const std::uint64_t diff =
        kernels_->diffOr(out, good_out, static_cast<std::size_t>(no) * W);

    // Latch all flip-flops, then apply Dff D-pin branch faults as
    // per-group patches (the kernel's single branch_ff slot cannot
    // carry several lane-group-local injections).
    divergedNext_.resize(static_cast<std::size_t>(nff));
    const int ndiv = scratch_.latchAndTrack(
        trace_.latchEligibleTable(phase), good, /*branch_ff=*/-1,
        detail::kZeroGroup.data(), faultyState_.data(), good_next,
        divergedNext_.data());
    divergedNext_.resize(static_cast<std::size_t>(ndiv));
    if (active) {
        patchedFfs_.clear();
        for (int f = 0; f < nf_; ++f) {
            if (retired_[static_cast<std::size_t>(f)])
                continue;
            const SeqFaultSite &s = sites_[static_cast<std::size_t>(f)];
            if (s.kind != SeqFaultSite::Kind::DffBranch ||
                !trace_.latchEligible(s.ff, phase))
                continue;
            std::uint64_t *fs =
                faultyState_.data() + static_cast<std::size_t>(s.ff) * W;
            const std::uint64_t bc = s.value ? kAllOnes : 0;
            std::fill_n(fs + f * Wg_, Wg_, bc);
            patchedFfs_.push_back(s.ff);
        }
        if (!patchedFfs_.empty()) {
            std::sort(patchedFfs_.begin(), patchedFfs_.end());
            patchedFfs_.erase(
                std::unique(patchedFfs_.begin(), patchedFfs_.end()),
                patchedFfs_.end());
            for (const int ffi : patchedFfs_) {
                const std::uint64_t *fs =
                    faultyState_.data() + static_cast<std::size_t>(ffi) * W;
                const bool div = !std::equal(
                    fs, fs + W, good_next + static_cast<std::size_t>(ffi) * W);
                const auto it =
                    std::lower_bound(divergedNext_.begin(),
                                     divergedNext_.end(), ffi);
                const bool listed =
                    it != divergedNext_.end() && *it == ffi;
                if (div && !listed)
                    divergedNext_.insert(it, ffi);
                else if (!div && listed)
                    divergedNext_.erase(it);
            }
        }
    }
    diverged_.swap(divergedNext_);
    return diff;
}

void
SeqFaultBatchSimulator::retireGroup(int f, long state_row)
{
    retired_[static_cast<std::size_t>(f)] = 1;
    --live_;
    // Re-sync the group's lanes with the good machine so it never
    // contributes another diff: patch its state words and drop any
    // flip-flop whose full block now matches the trace.
    const std::size_t W = static_cast<std::size_t>(Wb_);
    const std::uint64_t *st = trace_.state(state_row);
    const int nff = flat_.numFlipFlops();
    for (int i = 0; i < nff; ++i) {
        std::uint64_t *fs =
            faultyState_.data() + static_cast<std::size_t>(i) * W;
        const std::uint64_t *gs = st + static_cast<std::size_t>(i) * W;
        std::copy_n(gs + f * Wg_, Wg_, fs + f * Wg_);
    }
    diverged_.erase(
        std::remove_if(
            diverged_.begin(), diverged_.end(),
            [&](std::int32_t ffi) {
                const std::uint64_t *fs =
                    faultyState_.data() + static_cast<std::size_t>(ffi) * W;
                return std::equal(fs, fs + W,
                                  st + static_cast<std::size_t>(ffi) * W);
            }),
        diverged_.end());
}

bool
SeqFaultBatchSimulator::flushSymbol(long s, const std::uint64_t *p1row,
                                    const FoldSpec &spec,
                                    const SymbolSink &sink)
{
    const std::uint64_t *p0 =
        have0_ ? buf0_.data() : trace_.outputs(2 * s);
    const std::uint64_t *p1 = p1row ? p1row : trace_.outputs(2 * s + 1);
    kernels_->seqAlarmWrong(p0, p1, trace_.outputs(2 * s), spec.alt,
                            spec.nalt, spec.pairs, spec.npairs,
                            spec.data, spec.ndata, alarmBuf_.data(),
                            wrongBuf_.data());
    have0_ = false;
    pending_ = -1;
    for (int f = 0; f < nf_; ++f) {
        if (retired_[static_cast<std::size_t>(f)])
            continue;
        if (!sink(f, s, alarmBuf_.data() + f * Wg_,
                  wrongBuf_.data() + f * Wg_))
            retireGroup(f, t_);
    }
    return live_ > 0;
}

void
SeqFaultBatchSimulator::fold(long t, const FoldSpec &spec,
                             const SymbolSink &sink)
{
    const long s = t / 2;
    if (pending_ >= 0 && pending_ != s)
        flushSymbol(pending_, nullptr, spec, sink);
    pending_ = s;
    if (t & 1) {
        flushSymbol(s, outBuf_.data(), spec, sink);
    } else {
        std::copy(outBuf_.begin(), outBuf_.end(), buf0_.begin());
        have0_ = true;
    }
}

void
SeqFaultBatchSimulator::run(const FoldSpec &spec, const SymbolSink &sink)
{
    const long total = trace_.numPeriods();
    while (t_ < total) {
        if (live_ == 0 || synced_)
            break;
        if (diverged_.empty() && !inWindow(t_)) {
            if (t_ >= wend_) {
                synced_ = true;
                break;
            }
            // Quiescent until the window opens: fast-forward.
            periodsSkipped_ += std::min(wstart_, total) - t_;
            t_ = wstart_;
            continue;
        }
        if (diverged_.empty() && !anyLiveExcited(t_)) {
            // No group can deviate this period: one slice compare per
            // live site stands in for the whole replay.
            ++periodsSimulated_;
            ++t_;
            continue;
        }
        const std::uint64_t diff = stepBatchPeriod(t_);
        ++periodsSimulated_;
        ++t_;
        if (diff)
            fold(t_ - 1, spec, sink);
    }
}

void
SeqFaultBatchSimulator::flushPending(const FoldSpec &spec,
                                     const SymbolSink &sink)
{
    if (pending_ >= 0)
        flushSymbol(pending_, nullptr, spec, sink);
}

} // namespace scal::sim
