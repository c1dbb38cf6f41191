#include "layout/layout.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.hpp"

namespace scalesim::layout
{

Layout2D
Layout2D::rowMajor(std::uint64_t rows, std::uint64_t cols,
                   std::uint64_t line_words)
{
    Layout2D l;
    l.rows = rows;
    l.cols = cols;
    l.rowStep = 1;
    l.colStep = std::max<std::uint64_t>(1, std::min(cols, line_words));
    return l;
}

Layout2D
Layout2D::colMajor(std::uint64_t rows, std::uint64_t cols,
                   std::uint64_t line_words)
{
    Layout2D l;
    l.rows = rows;
    l.cols = cols;
    l.rowStep = std::max<std::uint64_t>(1, std::min(rows, line_words));
    l.colStep = 1;
    return l;
}

Layout2D
Layout2D::tiled(std::uint64_t rows, std::uint64_t cols,
                std::uint64_t line_words)
{
    Layout2D l;
    l.rows = rows;
    l.cols = cols;
    const std::uint64_t side = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::sqrt(
               static_cast<double>(line_words))));
    l.rowStep = std::max<std::uint64_t>(1, std::min(rows, side));
    l.colStep = std::max<std::uint64_t>(
        1, std::min(cols, line_words / l.rowStep));
    return l;
}

OperandLayouts
OperandLayouts::forGemm(const GemmDims& gemm,
                        const LayoutModelConfig& cfg,
                        LayoutScheme scheme)
{
    const std::uint64_t line_words = std::max<std::uint32_t>(
        1, cfg.onChipBandwidth);
    auto build = [&](std::uint64_t rows, std::uint64_t cols) {
        switch (scheme) {
          case LayoutScheme::RowMajor:
            return Layout2D::rowMajor(rows, cols, line_words);
          case LayoutScheme::ColMajor:
            return Layout2D::colMajor(rows, cols, line_words);
          case LayoutScheme::Tiled:
            return Layout2D::tiled(rows, cols, line_words);
        }
        return Layout2D::rowMajor(rows, cols, line_words);
    };
    OperandLayouts layouts;
    layouts.ifmap = build(gemm.m, gemm.k);
    layouts.filter = build(gemm.k, gemm.n);
    layouts.ofmap = build(gemm.m, gemm.n);
    return layouts;
}

OperandLayouts
OperandLayouts::forOperands(const systolic::OperandMap& map,
                            const LayoutModelConfig& cfg,
                            LayoutScheme scheme)
{
    OperandLayouts layouts = forGemm(map.dims, cfg, scheme);
    if (map.conv) {
        const std::uint64_t line_words = std::max<std::uint32_t>(
            1, cfg.onChipBandwidth);
        switch (scheme) {
          case LayoutScheme::RowMajor:
            layouts.ifmap = Layout2D::rowMajor(map.ifmapRows(),
                                               map.ifmapRowWidth(),
                                               line_words);
            break;
          case LayoutScheme::ColMajor:
            layouts.ifmap = Layout2D::colMajor(map.ifmapRows(),
                                               map.ifmapRowWidth(),
                                               line_words);
            break;
          case LayoutScheme::Tiled:
            layouts.ifmap = Layout2D::tiled(map.ifmapRows(),
                                            map.ifmapRowWidth(),
                                            line_words);
            break;
        }
    }
    return layouts;
}

namespace
{

/** Single-row lines that tile each row: line = off / colStep and
 *  col = off % colStep (rules 1 and 2 below). */
bool
flatLines(const Layout2D& layout, std::uint64_t row_width)
{
    return layout.rowStep == 1 && layout.cols == row_width
        && row_width % layout.colStep == 0;
}

} // namespace

/*
 * Why shiftPeriod() is a period of the cost. An address at offset
 * off = r * W + c (r = off / W, c = off % W) sits in line
 * (r / rowStep) * ceil(cols / colStep) + c / colStep and bank
 * ((r % rowStep) * colStep + c % colStep) / bpb % banks. A cycle's
 * cost is the largest number of distinct lines any one bank serves, so
 * a shift of every address leaves it unchanged whenever the shift maps
 * (bank, line) pairs one-to-one onto (pi(bank), line') pairs for some
 * bank permutation pi.
 *
 * Rule 3, P = W * rowStep, any layout: r moves by a multiple of
 * rowStep and c stays, so every bank is kept and every line id moves
 * by the same constant.
 *
 * Rule 2, P = colStep when rowStep == 1, cols == W and colStep | W:
 * then line = off / colStep and col = off % colStep exactly, so a shift
 * by a multiple of colStep keeps col (the bank) and moves every line id
 * by one constant.
 *
 * Rule 1, P = bpb when additionally bpb | colStep and
 * colStep <= banks * bpb: with q = colStep / bpb <= banks and the
 * block g = off / bpb, line = g / q and bank = g % q (col / bpb < q, so
 * the % banks is the identity). (bank, line) is thus a bijection of g,
 * and a shift by j * bpb maps g to g + j: bank b's blocks become bank
 * (b + j) % q's, a rotation of the first q banks.
 *
 * Two replays of one canonical fold whose deltas agree mod P for every
 * operand therefore cost the same in every cycle, which is what the
 * evaluator's replay memo relies on.
 */
std::uint64_t
shiftPeriod(const Layout2D& layout, std::uint64_t row_width,
            std::uint64_t bpb, std::uint32_t banks)
{
    if (!flatLines(layout, row_width))
        return row_width * layout.rowStep;
    if (layout.colStep % bpb == 0 && layout.colStep <= banks * bpb)
        return bpb;
    return layout.colStep;
}

BankConflictEvaluator::Divisor::Divisor(std::uint64_t value)
    : d(std::max<std::uint64_t>(1, value)),
      shift(std::has_single_bit(d) ? std::countr_zero(d) : -1)
{
}

BankConflictEvaluator::BankConflictEvaluator(
    const LayoutModelConfig& cfg, const OperandLayouts& layouts)
    : cfg_(cfg), layouts_(layouts)
{
    if (cfg_.banks == 0 || cfg_.portsPerBank == 0)
        fatal("layout model needs non-zero banks and ports");
    bpb_ = Divisor(cfg_.onChipBandwidth / cfg_.banks);
    banks_ = Divisor(cfg_.banks);
    // Banks take the top bits of a packed key and line ids the rest:
    // 54 bits with up to 1024 banks, never fewer than 32.
    bankShift_ = 64 - std::max(1u, static_cast<unsigned>(
        std::bit_width(cfg_.banks - 1u)));
}

BankConflictEvaluator::OperandBanks
BankConflictEvaluator::operandBanks(const Layout2D& layout, Addr base,
                                    std::uint64_t row_width) const
{
    OperandBanks op;
    op.layout = layout;
    op.base = base;
    op.rowWidth = Divisor(row_width);
    op.colStep = Divisor(layout.colStep);
    op.flat = flatLines(layout, row_width);
    op.period = shiftPeriod(layout, row_width, bpb_.d, cfg_.banks);
    return op;
}

void
BankConflictEvaluator::beginLayer(const systolic::FoldGrid& grid,
                                  const systolic::OperandMap& operands)
{
    ifmap_ = operandBanks(layouts_.ifmap, operands.ifmapBase,
                          operands.ifmapRowWidth());
    filter_ = operandBanks(layouts_.filter, operands.filterBase,
                           operands.dims.n);
    ofmap_ = operandBanks(layouts_.ofmap, operands.ofmapBase,
                          operands.dims.n);
    idealCycles_ = grid.totalCycles();
    slowedCycles_ = 0;
    conflictCycles_ = 0;
    foldsMemoized_ = 0;
    foldsWalked_ = 0;
    memo_.clear();
}

void
BankConflictEvaluator::beginFold(std::uint64_t /*rf*/,
                                 std::uint64_t /*cf*/,
                                 Cycle /*fold_start*/)
{
    fold_ = {};
    pending_.reset();
    memoHit_ = false;
}

void
BankConflictEvaluator::replayFold(std::uint64_t key,
                                  std::uint64_t canon_rf,
                                  std::uint64_t canon_cf,
                                  const systolic::ReplayDeltas& deltas,
                                  bool accumulate)
{
    auto residue = [](std::int64_t delta, std::uint64_t period) {
        const auto p = static_cast<std::int64_t>(period);
        return static_cast<std::uint64_t>(((delta % p) + p) % p);
    };
    const ReplayKey memo_key{key, canon_rf, canon_cf, accumulate,
                             {residue(deltas.ifmap, ifmap_.period),
                              residue(deltas.filter, filter_.period),
                              residue(deltas.ofmap, ofmap_.period)}};
    const auto it = memo_.find(memo_key);
    if (it == memo_.end()) {
        pending_ = memo_key;
        return;
    }
    slowedCycles_ += it->second.slowed;
    conflictCycles_ += it->second.conflicts;
    memoHit_ = true;
}

std::uint64_t
BankConflictEvaluator::bankLine(const OperandBanks& op, Addr addr) const
{
    const std::uint64_t off = addr - op.base;
    std::uint64_t line = 0;
    std::uint64_t col = 0;
    if (op.flat) {
        line = op.colStep.div(off);
        col = op.colStep.mod(off);
    } else {
        const std::uint64_t r = op.rowWidth.div(off);
        const std::uint64_t c = op.rowWidth.mod(off);
        line = op.layout.lineId(r, c);
        col = op.layout.colId(r, c);
    }
    const std::uint64_t bank = banks_.mod(bpb_.div(col));
    return (bank << bankShift_) | line;
}

std::uint64_t
BankConflictEvaluator::operandSlowdown(const OperandBanks& op,
                                       std::span<const Addr> reads,
                                       std::span<const Addr> extra)
{
    scratch_.clear();
    for (Addr a : reads)
        scratch_.push_back(bankLine(op, a));
    // Accumulating folds re-read exactly the addresses they write.
    if (!std::ranges::equal(reads, extra)) {
        for (Addr a : extra)
            scratch_.push_back(bankLine(op, a));
    }
    if (scratch_.empty())
        return 0;
    std::sort(scratch_.begin(), scratch_.end());
    scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                   scratch_.end());
    // Count distinct lines per bank; the busiest bank dominates.
    std::uint64_t worst = 0;
    std::size_t i = 0;
    while (i < scratch_.size()) {
        const std::uint64_t bank = scratch_[i] >> bankShift_;
        std::uint64_t lines = 0;
        while (i < scratch_.size() && scratch_[i] >> bankShift_ == bank) {
            ++lines;
            ++i;
        }
        worst = std::max(worst, lines);
    }
    return ceilDiv(worst, cfg_.portsPerBank);
}

void
BankConflictEvaluator::cycle(Cycle /*clk*/,
                             std::span<const Addr> ifmap_reads,
                             std::span<const Addr> filter_reads,
                             std::span<const Addr> ofmap_reads,
                             std::span<const Addr> ofmap_writes)
{
    if (memoHit_)
        return;
    const std::uint64_t ifmap_cost = operandSlowdown(ifmap_, ifmap_reads,
                                                     {});
    const std::uint64_t filter_cost = operandSlowdown(filter_,
                                                      filter_reads, {});
    const std::uint64_t ofmap_cost = operandSlowdown(ofmap_, ofmap_reads,
                                                     ofmap_writes);

    // The three SRAMs are accessed in parallel; the slowest gates the
    // cycle. An idle cycle still takes one cycle.
    const std::uint64_t cost = std::max<std::uint64_t>(
        1, std::max({ifmap_cost, filter_cost, ofmap_cost}));
    slowedCycles_ += cost;
    fold_.slowed += cost;
    if (cost > 1) {
        ++conflictCycles_;
        ++fold_.conflicts;
    }
}

void
BankConflictEvaluator::endFold(std::uint64_t /*rf*/, std::uint64_t /*cf*/,
                               Cycle /*fold_end*/)
{
    if (memoHit_) {
        ++foldsMemoized_;
    } else {
        ++foldsWalked_;
        if (pending_)
            memo_.emplace(*pending_, fold_);
    }
    // Cycles outside a replayed fold are always evaluated.
    pending_.reset();
    memoHit_ = false;
}

double
BankConflictEvaluator::slowdown() const
{
    if (idealCycles_ == 0)
        return 1.0;
    return static_cast<double>(slowedCycles_)
        / static_cast<double>(idealCycles_);
}

} // namespace scalesim::layout
