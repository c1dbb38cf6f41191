#include "systolic/scratchpad.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "check/contract.hpp"
#include "common/log.hpp"

namespace scalesim::systolic
{

TileCache::TileCache(std::uint64_t capacity_words)
    : capacity_(capacity_words)
{
}

std::uint64_t
TileCache::access(std::uint64_t key, std::uint64_t words)
{
    auto hit = index_.find(key);
    if (hit != index_.end()) {
        // Move to MRU position.
        lru_.splice(lru_.begin(), lru_, hit->second);
        return 0;
    }
    if (words > capacity_) {
        // Streaming tile: cannot be kept resident, fetched every use.
        return words;
    }
    while (used_ + words > capacity_ && !lru_.empty()) {
        auto& victim = lru_.back();
        used_ -= victim.second;
        index_.erase(victim.first);
        lru_.pop_back();
    }
    lru_.emplace_front(key, words);
    index_[key] = lru_.begin();
    used_ += words;
    return words;
}

void
TileCache::clear()
{
    lru_.clear();
    index_.clear();
    used_ = 0;
}

namespace
{

/**
 * Reject bad configs before any member is sized from them: a zero
 * prefetchDepth must fail cleanly, not silently size the tile caches
 * for depth 1 and then throw with half-constructed members.
 */
const ScratchpadConfig&
validated(const ScratchpadConfig& cfg)
{
    if (cfg.burstWords == 0)
        fatal("burstWords must be non-zero");
    if (cfg.issuePerCycle == 0)
        fatal("issuePerCycle must be non-zero");
    if (cfg.prefetchDepth == 0)
        fatal("prefetchDepth must be non-zero");
    return cfg;
}

/** Per-fold fetch/writeback description. */
struct FoldPlanData
{
    std::vector<DoubleBufferedScratchpad::TileSpan> reads;
    DoubleBufferedScratchpad::TileSpan writeback;
    bool hasWriteback = false;
};

/** DRAM transactions a span splits into. */
std::uint64_t
spanRequests(const DoubleBufferedScratchpad::TileSpan& span,
             std::uint32_t burst_words)
{
    return span.segments * ceilDiv(span.segWords, burst_words);
}

/**
 * Ifmap rows a convolution fold touches: output pixels [m_lo, m_hi]
 * under reduction range [k_lo, k_hi] (indices in the fold grid's —
 * possibly sparsity-compressed — K domain, rescaled to the dense K
 * the tensor is addressed with). Returns the inclusive [h_lo, h_hi]
 * feature-map row range.
 */
std::pair<std::uint64_t, std::uint64_t>
convIfmapRows(const OperandMap& op, std::uint64_t m_lo,
              std::uint64_t m_hi, std::uint64_t k_lo,
              std::uint64_t k_hi, std::uint64_t effective_k)
{
    std::uint64_t k_lo_dense = k_lo;
    std::uint64_t k_hi_dense = k_hi;
    if (effective_k != op.dims.k && effective_k > 0) {
        // Sparse run: compressed K rows scatter across the dense
        // range; scale the bounds conservatively.
        k_lo_dense = k_lo * op.dims.k / effective_k;
        k_hi_dense = std::min(op.dims.k - 1,
                              (k_hi + 1) * op.dims.k / effective_k);
    }
    return op.ifmapRowRange(m_lo, m_hi, k_lo_dense, k_hi_dense);
}

} // namespace

/**
 * Resumable layer state: everything the old monolithic fold loop kept
 * in locals, plus a burst cursor that remembers which transaction of
 * which span of which phase comes next. One transaction per step()
 * keeps the engine interleavable at memory-request granularity.
 */
struct DoubleBufferedScratchpad::LayerRun
{
    LayerRun(const ScratchpadConfig& cfg, const FoldGrid& g,
             const OperandMap& ops, Cycle start, double scale)
        : grid(g), operands(ops), startCycle(start),
          readQueue(cfg.readQueueSize), writeQueue(cfg.writeQueueSize),
          pace(1.0 / cfg.issuePerCycle), computeEnd(start),
          prevComputeStart(start), prevPrefetchDone(start)
    {
        foldLen = static_cast<Cycle>(std::llround(
            static_cast<double>(grid.foldCycles()) * scale));
        timing.computeCycles = foldLen * grid.numFolds();
        timing.folds = grid.numFolds();
    }

    FoldGrid grid;
    OperandMap operands;
    Cycle startCycle;
    RequestQueue readQueue;
    RequestQueue writeQueue;
    double pace;
    Cycle foldLen = 0;
    LayerTiming timing;
    MemoryStats statsBefore;

    // Fold-loop state (mirrors the original monolithic loop).
    std::uint64_t rf = 0;
    std::uint64_t cf = 0;
    std::uint64_t foldIndex = 0;
    bool firstFold = true;
    Cycle computeEnd;
    Cycle prevComputeStart;
    Cycle prevPrefetchDone;
    // Compute-start history for depth-d prefetch: the buffer for fold
    // f frees up when fold f-depth starts computing.
    std::vector<Cycle> startHistory;
    bool pendingWriteback = false;
    TileSpan pendingSpan;

    // Current fold.
    FoldPlanData plan;
    Cycle issueBase = 0;
    Cycle ready = 0;
    Cycle readStallsBefore = 0;

    /**
     * Where the burst cursor stands: fetching the current fold's
     * operands, draining the previous fold's writeback (issued after
     * this fold's prefetch so call order matches time order), draining
     * the last fold's writeback, or complete.
     */
    enum class Phase { FoldReads, PrevWrites, FinalWrites, Done };
    Phase phase = Phase::Done;
    std::size_t spanIdx = 0;
    std::uint64_t seg = 0;
    std::uint64_t segRemaining = 0;
    Addr burstAddr = 0;
    double nextIssue = 0.0;
    Cycle lastWriteIssue = 0;

    // The positioned (pending) transaction.
    Count burstWords = 0;
    Cycle burstWant = 0;
    Cycle burstAt = kNoEvent;

    /** Point the cursor at the start of `span`. */
    void
    startSpanCursor(const TileSpan& span, Cycle issue_start)
    {
        seg = 0;
        segRemaining = span.segWords;
        burstAddr = span.base;
        nextIssue = static_cast<double>(issue_start);
    }

    /**
     * Advance the cursor to the next burst of the current phase and
     * precompute its issue time. Returns false when the phase has no
     * more bursts. Pure with respect to the shared memory: only this
     * engine's own queue is queried, so the result is a valid
     * co-simulation horizon.
     */
    bool
    positionBurst(std::uint32_t burst_limit)
    {
        for (;;) {
            const bool reads = phase == Phase::FoldReads;
            const TileSpan* span = nullptr;
            if (reads) {
                if (spanIdx >= plan.reads.size())
                    return false;
                span = &plan.reads[spanIdx];
            } else {
                if (spanIdx >= 1)
                    return false;
                span = &pendingSpan;
            }
            if (seg < span->segments && segRemaining > 0) {
                burstWords = std::min<std::uint64_t>(segRemaining,
                                                     burst_limit);
                burstWant = static_cast<Cycle>(std::ceil(nextIssue));
                RequestQueue& queue = reads ? readQueue : writeQueue;
                burstAt = std::max(queue.slotAvailable(burstWant),
                                   burstWant);
                return true;
            }
            if (seg + 1 < span->segments) {
                ++seg;
                segRemaining = span->segWords;
                burstAddr = span->base + seg * span->stride;
            } else if (reads) {
                ++spanIdx;
                if (spanIdx < plan.reads.size()) {
                    // Pacing restarts at the fold's issue base for
                    // every span (as the original per-span loop did).
                    startSpanCursor(plan.reads[spanIdx], issueBase);
                }
            } else {
                ++spanIdx;
            }
        }
    }

    /** Enter a writeback phase for pendingSpan. */
    void
    beginWrites(Phase p, std::uint32_t burst_words)
    {
        const std::uint64_t reqs = spanRequests(pendingSpan,
                                                burst_words);
        Cycle writes_base = computeEnd > reqs ? computeEnd - reqs : 0;
        writes_base = std::max(writes_base, prevComputeStart);
        phase = p;
        spanIdx = 0;
        startSpanCursor(pendingSpan, writes_base);
        lastWriteIssue = writes_base;
    }

    /**
     * Retire a finished writeback phase: the drain overlaps the tail
     * of the producing fold; only back-pressure extends the timeline.
     */
    void
    closeWrites()
    {
        if (lastWriteIssue > computeEnd) {
            timing.drainStallCycles += lastWriteIssue - computeEnd;
            computeEnd = lastWriteIssue;
        }
        pendingWriteback = false;
    }

    void
    complete()
    {
        phase = Phase::Done;
        burstAt = kNoEvent;
    }
};

DoubleBufferedScratchpad::DoubleBufferedScratchpad(
    const ScratchpadConfig& cfg, MainMemory& memory)
    : cfg_(validated(cfg)), memory_(memory),
      // One shadow buffer per prefetch-depth step; the rest of each
      // SRAM holds resident data.
      ifmapCache_(cfg_.ifmapWords / (1 + cfg_.prefetchDepth)),
      filterCache_(cfg_.filterWords / (1 + cfg_.prefetchDepth))
{
}

DoubleBufferedScratchpad::~DoubleBufferedScratchpad() = default;

void
DoubleBufferedScratchpad::reset()
{
    ifmapCache_.clear();
    filterCache_.clear();
}

void
DoubleBufferedScratchpad::planConvIfmap(
    const OperandMap& operands, std::uint64_t m_lo, std::uint64_t m_hi,
    std::uint64_t k_lo, std::uint64_t k_hi, std::uint64_t effective_k,
    std::vector<TileSpan>& reads)
{
    // Row-slice-granular residency: overlapping windows and adjacent
    // folds share ifmap rows, which must not be refetched. A fold
    // covering only part of the reduction (a (kw, c) slice of each
    // window row) fetches the corresponding fraction of each row;
    // slices are distinguished by an aligned bucket in the cache key.
    const auto [h_lo, h_hi] = convIfmapRows(operands, m_lo, m_hi, k_lo,
                                            k_hi, effective_k);
    const std::uint64_t row_width = operands.ifmapRowWidth();
    const std::uint64_t kfc = std::max<std::uint64_t>(
        1, operands.filterW * operands.channels);
    std::uint64_t k_span = k_hi - k_lo + 1;
    if (effective_k != operands.dims.k && effective_k > 0)
        k_span = k_span * operands.dims.k / effective_k;
    std::uint64_t slice_words = row_width;
    std::uint64_t bucket = 0;
    if (k_span < kfc) {
        slice_words = std::max<std::uint64_t>(
            1, row_width * k_span / kfc);
        bucket = 1 + (k_lo % kfc) / std::max<std::uint64_t>(1, k_span);
    }
    std::uint64_t run_start = ~static_cast<std::uint64_t>(0);
    auto flush = [&](std::uint64_t end_h) {
        if (run_start == ~static_cast<std::uint64_t>(0))
            return;
        reads.push_back({operands.ifmapBase + run_start * row_width, 1,
                         (end_h - run_start) * slice_words, 0});
        run_start = ~static_cast<std::uint64_t>(0);
    };
    for (std::uint64_t h = h_lo; h <= h_hi; ++h) {
        const std::uint64_t key = h * 65536 + bucket;
        const bool miss = ifmapCache_.access(key, slice_words) > 0;
        if (miss && run_start == ~static_cast<std::uint64_t>(0))
            run_start = h;
        if (!miss)
            flush(h);
    }
    flush(h_hi + 1);
}

void
DoubleBufferedScratchpad::planFold()
{
    LayerRun& r = *run_;
    const FoldGrid& grid = r.grid;
    const OperandMap& operands = r.operands;
    const std::uint64_t k_dim = grid.gemm().k;
    const std::uint64_t m_dim = grid.gemm().m;
    const std::uint64_t n_dim = grid.gemm().n;
    // Address-space row pitch (global operand layout; differs from
    // the grid dims for partitioned or sparsity-compressed runs).
    const std::uint64_t n_pitch = operands.dims.n;
    const std::uint64_t rf = r.rf;
    const std::uint64_t cf = r.cf;
    const std::uint64_t tr = grid.tileRows(rf);
    const std::uint64_t tc = grid.tileCols(cf);
    const std::uint64_t rbase = rf * grid.arrayRows();
    const std::uint64_t cbase = cf * grid.arrayCols();

    r.plan = FoldPlanData{};
    FoldPlanData& plan = r.plan;
    switch (grid.dataflow()) {
      case Dataflow::OutputStationary: {
        if (operands.conv) {
            planConvIfmap(operands, rbase, rbase + tr - 1, 0,
                          k_dim - 1, k_dim, plan.reads);
        } else if (ifmapCache_.access(rf, tr * k_dim)) {
            plan.reads.push_back({operands.ifmapAddr(rbase, 0),
                                  1, tr * k_dim, 0});
        }
        if (filterCache_.access(cf, k_dim * tc)) {
            plan.reads.push_back({operands.filterAddr(0, cbase),
                                  k_dim, tc, n_pitch});
        }
        plan.writeback = {operands.ofmapAddr(rbase, cbase), tr,
                          tc, n_pitch};
        plan.hasWriteback = true;
        break;
      }
      case Dataflow::WeightStationary: {
        const std::uint64_t filter_key = rf * grid.colFolds() + cf;
        if (filterCache_.access(filter_key, tr * tc)) {
            plan.reads.push_back({operands.filterAddr(rbase, cbase),
                                  tr, tc, n_pitch});
        }
        if (operands.conv) {
            planConvIfmap(operands, 0, m_dim - 1, rbase,
                          rbase + tr - 1, k_dim, plan.reads);
        } else if (ifmapCache_.access(rf, m_dim * tr)) {
            plan.reads.push_back({operands.ifmapAddr(0, rbase),
                                  m_dim, tr, operands.dims.k});
        }
        const std::uint64_t ofmap_fold_words = m_dim * tc;
        const bool spills = ofmap_fold_words > cfg_.ofmapWords;
        const bool last_rf = rf + 1 == grid.rowFolds();
        if (spills && rf > 0) {
            // Partial sums re-loaded from DRAM.
            plan.reads.push_back({operands.ofmapAddr(0, cbase),
                                  m_dim, tc, n_pitch});
        }
        if (spills || last_rf) {
            plan.writeback = {operands.ofmapAddr(0, cbase),
                              m_dim, tc, n_pitch};
            plan.hasWriteback = true;
        }
        break;
      }
      case Dataflow::InputStationary: {
        const std::uint64_t ifmap_key = rf * grid.colFolds() + cf;
        if (operands.conv) {
            planConvIfmap(operands, cbase, cbase + tc - 1,
                          rbase, rbase + tr - 1, k_dim, plan.reads);
        } else if (ifmapCache_.access(ifmap_key, tr * tc)) {
            plan.reads.push_back({operands.ifmapAddr(cbase, rbase),
                                  tc, tr, operands.dims.k});
        }
        if (filterCache_.access(rf, n_dim * tr)) {
            plan.reads.push_back({operands.filterAddr(rbase, 0),
                                  1, tr * n_dim, 0});
        }
        const std::uint64_t ofmap_fold_words = tc * n_dim;
        const bool spills = ofmap_fold_words > cfg_.ofmapWords;
        const bool last_rf = rf + 1 == grid.rowFolds();
        if (spills && rf > 0) {
            plan.reads.push_back({operands.ofmapAddr(cbase, 0),
                                  1, tc * n_dim, 0});
        }
        if (spills || last_rf) {
            plan.writeback = {operands.ofmapAddr(cbase, 0), 1,
                              tc * n_dim, 0};
            plan.hasWriteback = true;
        }
        break;
      }
    }

    // Prefetch may start once the previous fold's prefetch has
    // finished and a buffer is free — i.e. fold f-depth has started
    // computing (depth = 1 is classic double buffering).
    Cycle buffer_free = r.startCycle;
    if (r.foldIndex >= cfg_.prefetchDepth)
        buffer_free = r.startHistory[r.foldIndex - cfg_.prefetchDepth];
    r.issueBase = r.firstFold
        ? r.startCycle
        : std::max(r.prevPrefetchDone, buffer_free);
    r.readStallsBefore = r.readQueue.fullStallCycles();
    r.ready = r.issueBase;
    r.phase = LayerRun::Phase::FoldReads;
    r.spanIdx = 0;
    if (!plan.reads.empty())
        r.startSpanCursor(plan.reads[0], r.issueBase);
}

void
DoubleBufferedScratchpad::foldWrapup()
{
    LayerRun& r = *run_;
    const Cycle compute_start = std::max(r.computeEnd, r.ready);
    // Stall attribution: the wait for prefetch data splits into the
    // share caused by a full read queue (bandwidth) and the genuine
    // prefetch miss latency; writeback extensions were charged to
    // drain in closeWrites(). The three buckets sum exactly to
    // stallCycles.
    const Cycle gap = compute_start - r.computeEnd;
    const Cycle queue_delay = r.readQueue.fullStallCycles()
        - r.readStallsBefore;
    const Cycle bandwidth_part = std::min(gap, queue_delay);
    r.timing.bandwidthStallCycles += bandwidth_part;
    r.timing.prefetchStallCycles += gap - bandwidth_part;
    const Cycle fold_end = compute_start + r.foldLen;
    if (cfg_.recordFoldSpans
        && r.timing.foldSpans.size()
            < LayerTiming::kMaxRecordedFoldSpans) {
        r.timing.foldSpans.push_back(
            {compute_start - r.startCycle,
             fold_end - r.startCycle,
             static_cast<std::uint32_t>(r.rf),
             static_cast<std::uint32_t>(r.cf)});
    }

    if (r.plan.hasWriteback) {
        r.pendingWriteback = true;
        r.pendingSpan = r.plan.writeback;
    }

    r.prevPrefetchDone = r.ready;
    r.prevComputeStart = compute_start;
    r.startHistory.push_back(compute_start);
    ++r.foldIndex;
    r.computeEnd = fold_end;
    r.firstFold = false;

    ++r.cf;
    if (r.cf == r.grid.colFolds()) {
        r.cf = 0;
        ++r.rf;
    }
    if (r.rf == r.grid.rowFolds()) {
        if (r.pendingWriteback)
            r.beginWrites(LayerRun::Phase::FinalWrites,
                          cfg_.burstWords);
        else
            r.complete();
    } else {
        planFold();
    }
}

void
DoubleBufferedScratchpad::advance()
{
    LayerRun& r = *run_;
    for (;;) {
        switch (r.phase) {
          case LayerRun::Phase::FoldReads:
            if (r.positionBurst(cfg_.burstWords))
                return;
            // This fold's prefetch is fully issued; retire the
            // previous fold's writeback (earlier in time) next.
            if (r.pendingWriteback) {
                r.beginWrites(LayerRun::Phase::PrevWrites,
                              cfg_.burstWords);
                break;
            }
            foldWrapup();
            break;
          case LayerRun::Phase::PrevWrites:
            if (r.positionBurst(cfg_.burstWords))
                return;
            r.closeWrites();
            foldWrapup();
            break;
          case LayerRun::Phase::FinalWrites:
            if (r.positionBurst(cfg_.burstWords))
                return;
            r.closeWrites();
            r.complete();
            return;
          case LayerRun::Phase::Done:
            return;
        }
    }
}

void
DoubleBufferedScratchpad::beginLayer(const FoldGrid& grid,
                                     const OperandMap& operands,
                                     Cycle start_cycle,
                                     double compute_scale)
{
    if (run_)
        fatal("beginLayer() while a layer is already in flight");
    run_ = std::make_unique<LayerRun>(cfg_, grid, operands,
                                      start_cycle, compute_scale);
    run_->statsBefore = memory_.stats();
    planFold();
    advance();
}

Cycle
DoubleBufferedScratchpad::nextEventCycle() const
{
    return run_ ? run_->burstAt : kNoEvent;
}

void
DoubleBufferedScratchpad::step()
{
    if (!run_ || run_->burstAt == kNoEvent)
        fatal("step() without a pending memory event");
    LayerRun& r = *run_;
    const bool reads = r.phase == LayerRun::Phase::FoldReads;
    RequestQueue& queue = reads ? r.readQueue : r.writeQueue;
    const Cycle slot = queue.reserve(r.burstWant);
    const Cycle at = std::max(slot, r.burstWant);
    if (reads) {
        const Cycle done = memory_.issueRead(r.burstAddr, r.burstWords,
                                             at);
        queue.push(done);
        r.ready = std::max(r.ready, done);
        ++r.timing.dramReadRequests;
        r.timing.dramReadWords += r.burstWords;
    } else {
        const Cycle accepted = memory_.issueWrite(r.burstAddr,
                                                  r.burstWords, at);
        queue.push(accepted);
        r.lastWriteIssue = std::max(r.lastWriteIssue, at);
        ++r.timing.dramWriteRequests;
        r.timing.dramWriteWords += r.burstWords;
    }
    r.nextIssue = static_cast<double>(at) + r.pace;
    r.burstAddr += r.burstWords;
    r.segRemaining -= r.burstWords;
    advance();
}

LayerTiming
DoubleBufferedScratchpad::finishLayer()
{
    if (!run_ || run_->phase != LayerRun::Phase::Done)
        fatal("finishLayer() before the layer completed");
    LayerRun& r = *run_;
    r.timing.totalCycles = r.computeEnd - r.startCycle;
    r.timing.stallCycles =
        r.timing.totalCycles > r.timing.computeCycles
        ? r.timing.totalCycles - r.timing.computeCycles : 0;
    r.timing.readQueueStalls = r.readQueue.fullStallCycles();
    r.timing.writeQueueStalls = r.writeQueue.fullStallCycles();
    SIM_CHECK_EQ(r.timing.prefetchStallCycles
                     + r.timing.drainStallCycles
                     + r.timing.bandwidthStallCycles,
                 r.timing.stallCycles,
                 "stall breakdown must cover the stall total");
    SIM_CHECK_EQ(r.timing.computeCycles + r.timing.stallCycles,
                 r.timing.totalCycles,
                 "compute + stall must cover the layer wall clock");

    const MemoryStats& stats_after = memory_.stats();
    const Count read_reqs = stats_after.readRequests
        - r.statsBefore.readRequests;
    if (read_reqs) {
        r.timing.avgReadLatency = static_cast<double>(
            stats_after.totalReadLatency
            - r.statsBefore.totalReadLatency)
            / read_reqs;
    }

    // CPI stack: compute/drain/bandwidth map 1:1 from the stall
    // breakdown; the prefetch stall is refined across the backend
    // using the memory model's read-latency components for this layer
    // as weights. Integer floor division keeps every bucket exact and
    // the remainder in prefetchMiss, so the stack always sums to
    // totalCycles — the auditor's cpi.conservation law.
    obs::CpiStack& cpi = r.timing.cpi;
    cpi.compute = r.timing.totalCycles - r.timing.stallCycles;
    cpi.drain = r.timing.drainStallCycles;
    cpi.bandwidth = r.timing.bandwidthStallCycles;
    const Cycle prefetch = r.timing.prefetchStallCycles;
    const Cycle w_port =
        stats_after.readPortWait - r.statsBefore.readPortWait;
    const Cycle w_queue =
        stats_after.readQueueWait - r.statsBefore.readQueueWait;
    const Cycle w_refresh =
        stats_after.readRefresh - r.statsBefore.readRefresh;
    const Cycle w_service =
        stats_after.readService - r.statsBefore.readService;
    const Cycle w_sum = w_port + w_queue + w_refresh + w_service;
    if (w_sum > 0 && prefetch > 0) {
        using u128 = unsigned __int128;
        auto share = [&](Cycle w) {
            return static_cast<Cycle>(
                static_cast<u128>(prefetch) * w / w_sum);
        };
        cpi.l2Wait = share(w_port);
        cpi.dramQueue = share(w_queue);
        cpi.refresh = share(w_refresh);
        cpi.dramService = share(w_service);
        cpi.prefetchMiss = prefetch - cpi.l2Wait - cpi.dramQueue
            - cpi.refresh - cpi.dramService;
    } else {
        cpi.prefetchMiss = prefetch;
    }
    SIM_CHECK_EQ(cpi.total(), r.timing.totalCycles,
                 "CPI stack must cover the layer wall clock");

    LayerTiming timing = std::move(r.timing);
    run_.reset();
    totals_.accumulate(timing);
    return timing;
}

LayerTiming
DoubleBufferedScratchpad::runLayer(const FoldGrid& grid,
                                   const OperandMap& operands,
                                   Cycle start_cycle,
                                   double compute_scale)
{
    beginLayer(grid, operands, start_cycle, compute_scale);
    while (nextEventCycle() != kNoEvent)
        step();
    return finishLayer();
}

void
DoubleBufferedScratchpad::registerStats(obs::StatsRegistry& reg,
                                        const std::string& prefix) const
{
    auto name = [&](const char* leaf) { return prefix + "." + leaf; };
    reg.addScalar(name("computeCycles"),
                  "ideal compute cycles across layers",
                  static_cast<double>(totals_.computeCycles));
    reg.addScalar(name("totalCycles"),
                  "wall-clock cycles incl. stalls across layers",
                  static_cast<double>(totals_.totalCycles));
    reg.addScalar(name("stallCycles"), "memory stall cycles",
                  static_cast<double>(totals_.stallCycles));
    reg.addScalar(name("folds"), "systolic folds executed",
                  static_cast<double>(totals_.folds));
    reg.addVectorElem(name("stallBreakdown"), "prefetchMiss",
                      "stall cycles by cause (sums to stallCycles)",
                      static_cast<double>(totals_.prefetchStallCycles));
    reg.addVectorElem(name("stallBreakdown"), "drain",
                      "stall cycles by cause (sums to stallCycles)",
                      static_cast<double>(totals_.drainStallCycles));
    reg.addVectorElem(
        name("stallBreakdown"), "bandwidth",
        "stall cycles by cause (sums to stallCycles)",
        static_cast<double>(totals_.bandwidthStallCycles));
    totals_.cpi.registerStats(
        reg, name("cpistack"),
        "per-cause cycle attribution (sums to totalCycles)");
    reg.addScalar(name("dramReadWords"), "main-memory words read",
                  static_cast<double>(totals_.dramReadWords));
    reg.addScalar(name("dramWriteWords"), "main-memory words written",
                  static_cast<double>(totals_.dramWriteWords));
    reg.addScalar(name("dramReadRequests"),
                  "main-memory read transactions",
                  static_cast<double>(totals_.dramReadRequests));
    reg.addScalar(name("dramWriteRequests"),
                  "main-memory write transactions",
                  static_cast<double>(totals_.dramWriteRequests));
    reg.addScalar(name("readQueueStalls"),
                  "cycles lost to a full read queue",
                  static_cast<double>(totals_.readQueueStalls));
    reg.addScalar(name("writeQueueStalls"),
                  "cycles lost to a full write queue",
                  static_cast<double>(totals_.writeQueueStalls));
    reg.addFormula(name("stallFraction"), "stallCycles / totalCycles",
                   {{{name("stallCycles"), 1.0}},
                    {{name("totalCycles"), 1.0}},
                    1.0});
}

} // namespace scalesim::systolic
