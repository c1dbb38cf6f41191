/**
 * @file
 * Per-layer sparsity model: resolves the [sparsity] config and the
 * layer's SparsitySupport annotation into a SparsityPattern, exposes
 * the compressed GEMM dimensions for the compute models, and produces
 * SPARSE_REPORT rows (§IV-B Step 3).
 */

#ifndef SCALESIM_SPARSE_MODEL_HH
#define SCALESIM_SPARSE_MODEL_HH

#include <optional>
#include <string>

#include "common/config.hpp"
#include "common/types.hpp"
#include "sparse/formats.hpp"
#include "sparse/pattern.hpp"

namespace scalesim::sparse
{

/** One row of SPARSE_REPORT.csv. */
struct SparseLayerReport
{
    std::string layerName;
    std::string representation;
    std::uint32_t ratioN = 0;
    std::uint32_t ratioM = 0;
    std::uint64_t denseK = 0;
    std::uint64_t compressedK = 0;
    /** Dense filter storage, bits. */
    std::uint64_t originalFilterBits = 0;
    /** Compressed values + metadata, bits. */
    std::uint64_t newFilterBits = 0;
    std::uint64_t metadataBits = 0;

    bool operator==(const SparseLayerReport&) const = default;
};

/**
 * Resolves sparsity for one layer.
 *
 * Row-wise mode (OptimizedMapping = true) randomizes N per M-block
 * with N <= M/2, seeded deterministically from the config seed and the
 * layer's position. Layer-wise mode (SparsitySupport = true) applies
 * the layer's own N:M annotation uniformly. Otherwise dense.
 */
class SparseLayerModel
{
  public:
    SparseLayerModel(const LayerSpec& layer, const SparsityConfig& cfg,
                     std::uint64_t layer_index = 0);

    /** True when compression actually happens (compressedK < K). */
    bool active() const { return active_; }

    const SparsityPattern& pattern() const { return pattern_; }

    /** GEMM dims with K replaced by the compressed K. */
    GemmDims effectiveGemm() const;

    /** Storage accounting under the configured representation. */
    StorageReport storage(std::uint32_t word_bits = 8) const;

    /** SPARSE_REPORT row. */
    SparseLayerReport report(std::uint32_t word_bits = 8) const;

  private:
    LayerSpec layer_;
    SparsityConfig cfg_;
    GemmDims denseGemm_;
    // NOTE: these three are written by resolvePattern() while pattern_
    // is constructed, so they must be declared (and thus initialized)
    // before pattern_.
    bool active_ = false;
    std::uint32_t appliedN_ = 0;
    std::uint32_t appliedM_ = 0;
    SparsityPattern pattern_;
};

} // namespace scalesim::sparse

#endif // SCALESIM_SPARSE_MODEL_HH
