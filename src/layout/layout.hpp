/**
 * @file
 * On-chip data layout modeling (paper §VI). The multi-bank SRAM is
 * abstracted as a 2D array: each "line" aggregates the same row index
 * from all banks, and a nested-loop layout assigns every tensor element
 * a (line_id, col_id) position; bank_id = col_id / bandwidth_per_bank.
 * Per cycle, the bank with the most distinct lines requested divided by
 * its port count sets the slowdown:
 *
 *   slowdown = max_i ceil(total_rows_bank_i / num_ports_bank_i)
 *
 * The evaluator taps the demand stream and integrates the slowdown over
 * a whole layer, yielding the normalized slowdown of Figs. 12/13.
 *
 * Replayed folds. The fold-replay cache announces every replayed fold
 * through DemandVisitor::replayFold(): its stream is a canonical
 * fold's stream with each operand shifted by a constant delta. A fold's
 * cost only depends on its stream up to a per-operand shift period P
 * (see shiftPeriod()), so the evaluator memoizes the slowed and
 * conflict cycles of each (class, canonical fold, accumulate,
 * delta mod P) per layer and skips the cycles of every later fold with
 * the same key. For an operand of row width W and line tile
 * rowStep x colStep, with bpb = bandwidth per bank:
 *
 *   - rowStep == 1, cols == W, colStep | W, bpb | colStep and
 *     colStep <= banks * bpb: P = bpb (a shift permutes the banks);
 *   - otherwise rowStep == 1, cols == W and colStep | W: P = colStep
 *     (a shift moves every line id by one constant);
 *   - otherwise P = W * rowStep (a shift moves whole line rows).
 *
 * The first two cases also decode an address with one division per
 * coordinate (line = off / colStep, bank = (off % colStep) / bpb),
 * shifts and masks when the divisors are powers of two.
 */

#ifndef SCALESIM_LAYOUT_LAYOUT_HH
#define SCALESIM_LAYOUT_LAYOUT_HH

#include <array>
#include <compare>
#include <map>
#include <optional>
#include <vector>

#include "common/config.hpp"
#include "systolic/demand.hpp"

namespace scalesim::layout
{

/**
 * Nested-loop layout of a 2D operand (rows x cols). Intra-line steps
 * (rowStep, colStep) define the tile of elements sharing one line;
 * lines enumerate the tiles in row-major order (the inter-line
 * dimension order).
 */
struct Layout2D
{
    std::uint64_t rows = 1;
    std::uint64_t cols = 1;
    std::uint64_t rowStep = 1;
    std::uint64_t colStep = 1;

    std::uint64_t lineTiles() const
    {
        return ceilDiv(rows, rowStep) * ceilDiv(cols, colStep);
    }
    std::uint64_t wordsPerLine() const { return rowStep * colStep; }

    std::uint64_t
    lineId(std::uint64_t r, std::uint64_t c) const
    {
        return (r / rowStep) * ceilDiv(cols, colStep) + c / colStep;
    }
    std::uint64_t
    colId(std::uint64_t r, std::uint64_t c) const
    {
        return (r % rowStep) * colStep + c % colStep;
    }

    /** Row-major lines of `line_words` consecutive elements. */
    static Layout2D rowMajor(std::uint64_t rows, std::uint64_t cols,
                             std::uint64_t line_words);
    /** Column-major lines (line spans `line_words` rows of a column). */
    static Layout2D colMajor(std::uint64_t rows, std::uint64_t cols,
                             std::uint64_t line_words);
    /** Square-ish tiles of roughly line_words elements. */
    static Layout2D tiled(std::uint64_t rows, std::uint64_t cols,
                          std::uint64_t line_words);
};

/** How each operand's elements are arranged in its SRAM. */
enum class LayoutScheme
{
    RowMajor,
    ColMajor,
    Tiled,
};

/** Per-operand layouts for one layer. */
struct OperandLayouts
{
    Layout2D ifmap;  // M x K
    Layout2D filter; // K x N
    Layout2D ofmap;  // M x N

    /**
     * Build layouts for a GEMM where each line holds
     * `banks * bandwidth_per_bank` words.
     */
    static OperandLayouts forGemm(const GemmDims& gemm,
                                  const LayoutModelConfig& cfg,
                                  LayoutScheme scheme);

    /**
     * Build layouts for an operand map; convolution ifmaps lay out
     * the real (H, W*C) tensor, matching the paper's C x H x W
     * nested-loop example.
     */
    static OperandLayouts forOperands(const systolic::OperandMap& map,
                                      const LayoutModelConfig& cfg,
                                      LayoutScheme scheme);
};

/**
 * Shift period of one operand's bank cost: shifting every address of a
 * cycle by a multiple of the result leaves the per-bank counts of
 * distinct lines unchanged up to a permutation of the banks, hence the
 * cycle's cost. `row_width` is the operand's addressed row width and
 * `bpb` the bandwidth per bank. The three cases are proven in
 * layout.cpp.
 */
std::uint64_t shiftPeriod(const Layout2D& layout, std::uint64_t row_width,
                          std::uint64_t bpb, std::uint32_t banks);

/**
 * Demand visitor that evaluates bank conflicts cycle by cycle.
 * slowdown() is total slowed cycles / ideal cycles (>= 1).
 */
class BankConflictEvaluator : public systolic::DemandVisitor
{
  public:
    BankConflictEvaluator(const LayoutModelConfig& cfg,
                          const OperandLayouts& layouts);

    void beginLayer(const systolic::FoldGrid& grid,
                    const systolic::OperandMap& operands) override;
    void beginFold(std::uint64_t rf, std::uint64_t cf,
                   Cycle fold_start) override;
    void replayFold(std::uint64_t key, std::uint64_t canon_rf,
                    std::uint64_t canon_cf,
                    const systolic::ReplayDeltas& deltas,
                    bool accumulate) override;
    void cycle(Cycle clk, std::span<const Addr> ifmap_reads,
               std::span<const Addr> filter_reads,
               std::span<const Addr> ofmap_reads,
               std::span<const Addr> ofmap_writes) override;
    void endFold(std::uint64_t rf, std::uint64_t cf,
                 Cycle fold_end) override;

    /** Cycles the layer takes with bank conflicts applied. */
    Cycle slowedCycles() const { return slowedCycles_; }
    /** Ideal (conflict-free) cycles. */
    Cycle idealCycles() const { return idealCycles_; }
    /** slowedCycles / idealCycles, >= 1. */
    double slowdown() const;
    /** Cycles in which at least one bank exceeded its ports. */
    Count conflictCycles() const { return conflictCycles_; }

    /** Folds of the layer served from the replay memo. */
    Count foldsMemoized() const { return foldsMemoized_; }
    /** Folds of the layer evaluated cycle by cycle. */
    Count foldsWalked() const { return foldsWalked_; }

    const LayoutModelConfig& config() const { return cfg_; }
    const OperandLayouts& layouts() const { return layouts_; }

  private:
    /** Divisor that shifts and masks when it is a power of two. */
    struct Divisor
    {
        std::uint64_t d = 1;
        /** log2(d), or -1 when d is not a power of two. */
        int shift = 0;

        Divisor() = default;
        explicit Divisor(std::uint64_t value);

        std::uint64_t
        div(std::uint64_t x) const
        {
            return shift >= 0 ? x >> shift : x / d;
        }
        std::uint64_t
        mod(std::uint64_t x) const
        {
            return shift >= 0 ? x & (d - 1) : x % d;
        }
    };

    /** Address decoding of one operand for the layer. */
    struct OperandBanks
    {
        Layout2D layout;
        Addr base = 0;
        Divisor rowWidth;
        Divisor colStep;
        /** line = off / colStep, col = off % colStep (see file doc). */
        bool flat = false;
        /** Shift period of the operand's cost (shiftPeriod()). */
        std::uint64_t period = 1;
    };

    /** Memo key of a replayed fold; deltas are reduced mod period. */
    struct ReplayKey
    {
        std::uint64_t cls = 0;
        std::uint64_t canonRf = 0;
        std::uint64_t canonCf = 0;
        bool accumulate = false;
        std::array<std::uint64_t, 3> residues{};

        auto operator<=>(const ReplayKey&) const = default;
    };

    /** Slowed and conflict cycles of one fold. */
    struct FoldCost
    {
        Cycle slowed = 0;
        Count conflicts = 0;
    };

    /** Packed (bank, line) key of one address. */
    std::uint64_t bankLine(const OperandBanks& op, Addr addr) const;

    /** Busiest bank's port-limited cycles for one operand's accesses. */
    std::uint64_t operandSlowdown(const OperandBanks& op,
                                  std::span<const Addr> reads,
                                  std::span<const Addr> extra);

    OperandBanks operandBanks(const Layout2D& layout, Addr base,
                              std::uint64_t row_width) const;

    LayoutModelConfig cfg_;
    OperandLayouts layouts_;
    /** Bandwidth per bank (at least 1). */
    Divisor bpb_;
    Divisor banks_;
    /** Bit position of the bank above the line in a packed key. */
    unsigned bankShift_ = 32;
    OperandBanks ifmap_;
    OperandBanks filter_;
    OperandBanks ofmap_;
    Cycle slowedCycles_ = 0;
    Cycle idealCycles_ = 0;
    Count conflictCycles_ = 0;
    Count foldsMemoized_ = 0;
    Count foldsWalked_ = 0;

    // Per-fold state: the current fold's cost, its memo key when it is
    // a replay to record, and whether the memo already covered it.
    FoldCost fold_;
    std::optional<ReplayKey> pending_;
    bool memoHit_ = false;
    std::map<ReplayKey, FoldCost> memo_;

    // Scratch: packed (bank, line) keys of the cycle under evaluation.
    std::vector<std::uint64_t> scratch_;
};

} // namespace scalesim::layout

#endif // SCALESIM_LAYOUT_LAYOUT_HH
