#include "check/audit.hpp"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <ostream>

#include "common/log.hpp"

namespace scalesim::check
{

namespace
{

const std::vector<LawInfo>&
lawTable()
{
    static const std::vector<LawInfo> laws = {
        {"spad.stallAccounting",
         "prefetchMiss + drain + bandwidth stall buckets sum to "
         "stallCycles; totalCycles == computeCycles + stallCycles"},
        {"runtime.envelope",
         "trace compute cycles reproduce the analytical "
         "(2R + C + T - 2) * ceil(Sr/R) * ceil(Sc/C) runtime (Eq. 1) "
         "scaled by the layout slowdown"},
        {"foldCache.conservation",
         "replayed + live folds == total folds; replayed addresses "
         "exist iff folds were replayed"},
        {"foldCache.replayFidelity",
         "fold-cache replay emits a byte-identical demand stream to "
         "live generation (checksum spot-check)"},
        {"layout.replayFidelity",
         "bank-conflict slowed and conflict cycles with the fold cache "
         "and replay memo equal a live re-evaluation (spot-check)"},
        {"dram.bankConservation",
         "per-bank row outcomes sum to channel requests; channels sum "
         "to system totals; bytes == requests * burstBytes"},
        {"dram.refreshBound",
         "per-rank all-bank refresh counts stay within the tREFI "
         "cadence of the channel's active window"},
        {"energy.actionAccounting",
         "MAC action classes partition PE-cycles; SRAM accesses + "
         "idle partition port-cycles; NoC words == SRAM words"},
        {"energy.demandAgreement",
         "trace-counted SRAM accesses equal the closed-form "
         "array-edge access counts"},
        {"mem.trafficConservation",
         "scratchpad-issued DRAM words and requests equal the "
         "main-memory model's counters"},
        {"mc.arbConservation",
         "arbiter grants == sum of per-port admitted transactions; "
         "L1 fill words == L2 hit + miss words"},
        {"run.totalsAccounting",
         "run totals equal the repetition-weighted per-layer sums"},
        {"cpi.conservation",
         "CPI-stack buckets partition wall-clock time: per-cause "
         "cycle buckets sum exactly to totalCycles"},
    };
    return laws;
}

/**
 * FNV-1a checksum over a demand stream: every cycle's clock and each
 * stream's addresses, tagged per stream so reordering between streams
 * changes the digest.
 */
class ChecksumVisitor : public systolic::DemandVisitor
{
  public:
    void
    cycle(Cycle clk, std::span<const Addr> ifmap_reads,
          std::span<const Addr> filter_reads,
          std::span<const Addr> ofmap_reads,
          std::span<const Addr> ofmap_writes) override
    {
        mix(clk);
        mixStream(1, ifmap_reads);
        mixStream(2, filter_reads);
        mixStream(3, ofmap_reads);
        mixStream(4, ofmap_writes);
    }

    std::uint64_t digest() const { return hash_; }
    std::uint64_t addresses() const { return addresses_; }

  private:
    void
    mix(std::uint64_t value)
    {
        // FNV-1a, one byte at a time.
        for (unsigned i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xFF;
            hash_ *= 0x100000001B3ull;
        }
    }

    void
    mixStream(std::uint64_t tag, std::span<const Addr> addrs)
    {
        if (addrs.empty())
            return;
        mix(tag);
        mix(addrs.size());
        for (Addr addr : addrs)
            mix(addr);
        addresses_ += addrs.size();
    }

    std::uint64_t hash_ = 0xCBF29CE484222325ull;
    std::uint64_t addresses_ = 0;
};

} // namespace

void
AuditReport::recordCheck(std::string_view law)
{
    ++checks_;
    for (auto& entry : perLaw_) {
        if (entry.first == law) {
            ++entry.second;
            return;
        }
    }
    perLaw_.emplace_back(std::string(law), 1);
}

void
AuditReport::recordViolation(std::string_view law,
                             std::string_view scope,
                             std::string message)
{
    violations_.push_back({std::string(law), std::string(scope),
                           std::move(message)});
}

std::uint64_t
AuditReport::checksForLaw(std::string_view law) const
{
    for (const auto& entry : perLaw_) {
        if (entry.first == law)
            return entry.second;
    }
    return 0;
}

void
AuditReport::clear()
{
    checks_ = 0;
    violations_.clear();
    perLaw_.clear();
}

void
AuditReport::merge(const AuditReport& other)
{
    checks_ += other.checks_;
    violations_.insert(violations_.end(), other.violations_.begin(),
                       other.violations_.end());
    for (const auto& entry : other.perLaw_) {
        bool found = false;
        for (auto& mine : perLaw_) {
            if (mine.first == entry.first) {
                mine.second += entry.second;
                found = true;
                break;
            }
        }
        if (!found)
            perLaw_.push_back(entry);
    }
}

void
AuditReport::registerStats(obs::StatsRegistry& reg,
                           const std::string& prefix) const
{
    reg.addScalar(prefix + ".checks",
                  "invariant relations evaluated",
                  static_cast<double>(checks_));
    reg.addScalar(prefix + ".violations",
                  "conservation laws found broken",
                  static_cast<double>(violations_.size()));
    for (const auto& law : InvariantAuditor::laws()) {
        reg.addVectorElem(prefix + ".checksByLaw", law.name,
                          "relations evaluated per law",
                          static_cast<double>(
                              checksForLaw(law.name)));
        std::uint64_t broken = 0;
        for (const auto& v : violations_) {
            if (v.law == law.name)
                ++broken;
        }
        reg.addVectorElem(prefix + ".violationsByLaw", law.name,
                          "violations per law",
                          static_cast<double>(broken));
    }
}

void
AuditReport::writeReport(std::ostream& out) const
{
    for (const auto& v : violations_) {
        out << "audit violation [" << v.law << "] " << v.scope << ": "
            << v.message << "\n";
    }
}

InvariantAuditor::InvariantAuditor() = default;

const std::vector<LawInfo>&
InvariantAuditor::laws()
{
    return lawTable();
}

void
InvariantAuditor::verify(bool ok, std::string_view law,
                         std::string_view scope, const char* fmt, ...)
{
    report_.recordCheck(law);
    if (ok)
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string message = vformat(fmt, args);
    va_end(args);
    report_.recordViolation(law, scope, std::move(message));
}

void
InvariantAuditor::auditStallAccounting(
    const systolic::LayerTiming& timing, std::string_view scope)
{
    const char* law = "spad.stallAccounting";
    const Cycle bucket_sum = timing.prefetchStallCycles
        + timing.drainStallCycles + timing.bandwidthStallCycles;
    verify(bucket_sum == timing.stallCycles, law, scope,
           "stall buckets %" PRIu64 " (prefetchMiss %" PRIu64
           " + drain %" PRIu64 " + bandwidth %" PRIu64
           ") != stallCycles %" PRIu64,
           bucket_sum, timing.prefetchStallCycles,
           timing.drainStallCycles, timing.bandwidthStallCycles,
           timing.stallCycles);
    verify(timing.totalCycles
               == timing.computeCycles + timing.stallCycles,
           law, scope,
           "totalCycles %" PRIu64 " != computeCycles %" PRIu64
           " + stallCycles %" PRIu64,
           timing.totalCycles, timing.computeCycles,
           timing.stallCycles);
}

void
InvariantAuditor::auditCpiStack(const obs::CpiStack& cpi,
                                Cycle total_cycles,
                                std::string_view scope)
{
    const char* law = "cpi.conservation";
    const std::uint64_t sum = cpi.total();
    std::string buckets;
    for (unsigned i = 0; i < obs::CpiStack::kBucketCount; ++i) {
        if (!buckets.empty())
            buckets += " + ";
        buckets += format("%s %" PRIu64, obs::CpiStack::bucketName(i),
                          cpi.bucketValue(i));
    }
    verify(sum == total_cycles, law, scope,
           "CPI buckets (%s) sum to %" PRIu64
           " != totalCycles %" PRIu64,
           buckets.c_str(), sum, total_cycles);
}

void
InvariantAuditor::auditRuntimeEnvelope(
    const systolic::LayerTiming& timing,
    const systolic::FoldGrid& grid, double compute_scale,
    std::string_view scope)
{
    const char* law = "runtime.envelope";
    const Cycle fold_len = static_cast<Cycle>(std::llround(
        static_cast<double>(grid.foldCycles()) * compute_scale));
    const Cycle analytical = fold_len * grid.numFolds();
    verify(timing.computeCycles == analytical, law, scope,
           "trace computeCycles %" PRIu64
           " != analytical (2R+C+T-2)*folds = %" PRIu64
           " (foldCycles %" PRIu64 ", scale %.4f, folds %" PRIu64 ")",
           timing.computeCycles, analytical, grid.foldCycles(),
           compute_scale, grid.numFolds());
    verify(timing.folds == grid.numFolds(), law, scope,
           "executed folds %" PRIu64 " != grid folds %" PRIu64,
           static_cast<std::uint64_t>(timing.folds), grid.numFolds());
    verify(timing.totalCycles >= timing.computeCycles, law, scope,
           "totalCycles %" PRIu64 " below computeCycles %" PRIu64
           " (stalls cannot be negative)",
           timing.totalCycles, timing.computeCycles);
}

void
InvariantAuditor::auditFoldCacheConservation(
    const systolic::FoldCacheStats& s, std::string_view scope)
{
    const char* law = "foldCache.conservation";
    verify(s.foldsReplayed + s.foldsLive == s.foldsTotal, law, scope,
           "replayed %" PRIu64 " + live %" PRIu64
           " != total folds %" PRIu64,
           static_cast<std::uint64_t>(s.foldsReplayed),
           static_cast<std::uint64_t>(s.foldsLive),
           static_cast<std::uint64_t>(s.foldsTotal));
    verify((s.addrsReplayed > 0) == (s.foldsReplayed > 0), law, scope,
           "addrsReplayed %" PRIu64 " inconsistent with "
           "foldsReplayed %" PRIu64,
           static_cast<std::uint64_t>(s.addrsReplayed),
           static_cast<std::uint64_t>(s.foldsReplayed));
}

void
InvariantAuditor::auditFoldReplayFidelity(
    const GemmDims& gemm, Dataflow df, std::uint32_t array_rows,
    std::uint32_t array_cols, const systolic::OperandMap& operands,
    std::string_view scope)
{
    systolic::DemandGenerator generator(gemm, df, array_rows,
                                        array_cols, operands);
    if (replayCheckMax_ > 0
        && generator.totalCycles() > replayCheckMax_) {
        return; // spot-check: skip oversized layers
    }
    const char* law = "foldCache.replayFidelity";
    ChecksumVisitor live;
    generator.setFoldCache(false);
    generator.run(live);
    ChecksumVisitor replayed;
    generator.setFoldCache(true);
    generator.run(replayed);
    verify(live.addresses() == replayed.addresses(), law, scope,
           "live generation emitted %" PRIu64
           " addresses, fold-cache replay %" PRIu64,
           live.addresses(), replayed.addresses());
    verify(live.digest() == replayed.digest(), law, scope,
           "demand-stream checksum mismatch: live %016" PRIx64
           " vs replay %016" PRIx64 " (%" PRIu64 " addresses)",
           live.digest(), replayed.digest(), live.addresses());
}

void
InvariantAuditor::auditLayoutReplayFidelity(
    const systolic::DemandGenerator& generator,
    const layout::BankConflictEvaluator& observed, std::string_view scope)
{
    if (replayCheckMax_ > 0 && generator.totalCycles() > replayCheckMax_)
        return; // spot-check: skip oversized layers
    const char* law = "layout.replayFidelity";
    systolic::DemandGenerator live_gen = generator;
    live_gen.setFoldCache(false);
    layout::BankConflictEvaluator live(observed.config(),
                                       observed.layouts());
    live_gen.run(live);
    verify(live.slowedCycles() == observed.slowedCycles(), law, scope,
           "live evaluation gives %" PRIu64 " slowed cycles, the "
           "evaluated run %" PRIu64,
           live.slowedCycles(), observed.slowedCycles());
    verify(live.conflictCycles() == observed.conflictCycles(), law, scope,
           "live evaluation gives %" PRIu64 " conflict cycles, the "
           "evaluated run %" PRIu64,
           live.conflictCycles(), observed.conflictCycles());
}

void
InvariantAuditor::auditDramChannel(
    const dram::DramStats& ch,
    const std::vector<dram::BankStats>& banks,
    const dram::DramTiming& timing, std::uint32_t ranks,
    std::string_view scope)
{
    const char* law = "dram.bankConservation";
    std::uint64_t bank_outcomes = 0;
    for (const auto& bank : banks) {
        bank_outcomes += bank.rowHits + bank.rowMisses
            + bank.rowConflicts;
    }
    const std::uint64_t requests = ch.reads + ch.writes;
    verify(bank_outcomes == requests, law, scope,
           "per-bank rowHits+rowMisses+conflicts %" PRIu64
           " != channel reads+writes %" PRIu64,
           bank_outcomes, requests);
    const std::uint64_t outcomes = ch.rowHits + ch.rowMisses
        + ch.rowConflicts;
    verify(outcomes == requests, law, scope,
           "channel row outcomes %" PRIu64 " != requests %" PRIu64,
           outcomes, requests);
    verify(ch.readBytes
               == ch.reads * static_cast<std::uint64_t>(
                   timing.burstBytes),
           law, scope,
           "readBytes %" PRIu64 " != reads %" PRIu64
           " * burstBytes %u",
           ch.readBytes, static_cast<std::uint64_t>(ch.reads),
           timing.burstBytes);
    verify(ch.writeBytes
               == ch.writes * static_cast<std::uint64_t>(
                   timing.burstBytes),
           law, scope,
           "writeBytes %" PRIu64 " != writes %" PRIu64
           " * burstBytes %u",
           ch.writeBytes, static_cast<std::uint64_t>(ch.writes),
           timing.burstBytes);

    law = "dram.refreshBound";
    if (timing.tREFI == 0)
        return;
    if (requests == 0) {
        verify(ch.refreshes == 0, law, scope,
               "idle channel performed %" PRIu64 " refreshes",
               static_cast<std::uint64_t>(ch.refreshes));
        return;
    }
    const std::uint64_t upper = static_cast<std::uint64_t>(ranks)
        * (ch.lastCompletion / timing.tREFI + 1);
    verify(ch.refreshes <= upper, law, scope,
           "refreshes %" PRIu64 " exceed tREFI-cadence bound %" PRIu64
           " (ranks %u, lastCompletion %" PRIu64 ", tREFI %" PRIu64
           ")",
           static_cast<std::uint64_t>(ch.refreshes), upper, ranks,
           ch.lastCompletion, timing.tREFI);
    // Lower bound: refresh catch-up is driven by requests, so only
    // the time up to the last serviced request counts; allow one
    // worst-case request service plus one full interval of slack.
    const Cycle slack = timing.tRFC + timing.tRC + timing.tRCD
        + timing.tRP + timing.tCL + timing.tCWL + timing.tBurst
        + timing.tWR + timing.tWTR + timing.tRTP;
    const Cycle active = ch.lastCompletion > slack
        ? ch.lastCompletion - slack : 0;
    const std::uint64_t intervals = active / timing.tREFI;
    const std::uint64_t lower = intervals > 0 ? intervals - 1 : 0;
    verify(ch.refreshes >= lower, law, scope,
           "refreshes %" PRIu64 " below tREFI-cadence floor %" PRIu64
           " (active window %" PRIu64 " clocks, tREFI %" PRIu64 ")",
           static_cast<std::uint64_t>(ch.refreshes), lower, active,
           timing.tREFI);
}

void
InvariantAuditor::auditDramTotals(
    const dram::DramStats& total,
    const std::vector<dram::DramStats>& channels,
    std::string_view scope)
{
    const char* law = "dram.bankConservation";
    dram::DramStats sum;
    for (const auto& ch : channels)
        sum.merge(ch);
    verify(sum.reads == total.reads && sum.writes == total.writes,
           law, scope,
           "channel request sums %" PRIu64 "r/%" PRIu64
           "w != system totals %" PRIu64 "r/%" PRIu64 "w",
           static_cast<std::uint64_t>(sum.reads),
           static_cast<std::uint64_t>(sum.writes),
           static_cast<std::uint64_t>(total.reads),
           static_cast<std::uint64_t>(total.writes));
    verify(sum.rowHits == total.rowHits
               && sum.rowMisses == total.rowMisses
               && sum.rowConflicts == total.rowConflicts
               && sum.refreshes == total.refreshes,
           law, scope,
           "channel outcome sums (%" PRIu64 "h/%" PRIu64 "m/%" PRIu64
           "c/%" PRIu64 "ref) != system totals (%" PRIu64 "h/%" PRIu64
           "m/%" PRIu64 "c/%" PRIu64 "ref)",
           static_cast<std::uint64_t>(sum.rowHits),
           static_cast<std::uint64_t>(sum.rowMisses),
           static_cast<std::uint64_t>(sum.rowConflicts),
           static_cast<std::uint64_t>(sum.refreshes),
           static_cast<std::uint64_t>(total.rowHits),
           static_cast<std::uint64_t>(total.rowMisses),
           static_cast<std::uint64_t>(total.rowConflicts),
           static_cast<std::uint64_t>(total.refreshes));
}

void
InvariantAuditor::auditDramSystem(const dram::DramSystem& system,
                                  std::string_view scope)
{
    std::vector<dram::DramStats> channels;
    channels.reserve(system.channels());
    for (std::uint32_t ch = 0; ch < system.channels(); ++ch) {
        channels.push_back(system.channelStats(ch));
        auditDramChannel(system.channelStats(ch),
                         system.channelBankStats(ch),
                         system.config().timing,
                         system.config().ranks,
                         std::string(scope) + ".ch"
                             + std::to_string(ch));
    }
    auditDramTotals(system.totalStats(), channels, scope);
}

void
InvariantAuditor::auditEnergyActions(const energy::ActionCounts& counts,
                                     const systolic::FoldGrid& grid,
                                     bool check_demand_agreement,
                                     std::string_view scope)
{
    const char* law = "energy.actionAccounting";
    const std::uint64_t pe_cycles =
        static_cast<std::uint64_t>(grid.arrayRows())
        * grid.arrayCols() * counts.cycles;
    const std::uint64_t mac_actions = counts.macRandom
        + counts.macConstant + counts.macGated;
    verify(mac_actions == pe_cycles, law, scope,
           "MAC actions %" PRIu64 " (random %" PRIu64 " + constant %"
           PRIu64 " + gated %" PRIu64 ") != PE-cycles %" PRIu64,
           mac_actions, static_cast<std::uint64_t>(counts.macRandom),
           static_cast<std::uint64_t>(counts.macConstant),
           static_cast<std::uint64_t>(counts.macGated), pe_cycles);
    // SRAM ports: accesses + idle fill the port capacity exactly,
    // except that an over-subscribed port (ofmap accumulate issues a
    // read AND a write per port-cycle) clamps idle at zero.
    const std::uint64_t ifmap_ports =
        static_cast<std::uint64_t>(grid.arrayRows()) * counts.cycles;
    const std::uint64_t col_ports =
        static_cast<std::uint64_t>(grid.arrayCols()) * counts.cycles;
    const std::uint64_t ifmap_used = counts.ifmapSram.reads();
    verify(ifmap_used + counts.ifmapSram.idle
               == std::max(ifmap_ports, ifmap_used),
           law, scope,
           "ifmap SRAM reads %" PRIu64 " + idle %" PRIu64
           " != port-cycles %" PRIu64,
           ifmap_used,
           static_cast<std::uint64_t>(counts.ifmapSram.idle),
           ifmap_ports);
    const std::uint64_t filter_used = counts.filterSram.reads();
    verify(filter_used + counts.filterSram.idle
               == std::max(col_ports, filter_used),
           law, scope,
           "filter SRAM reads %" PRIu64 " + idle %" PRIu64
           " != port-cycles %" PRIu64,
           filter_used,
           static_cast<std::uint64_t>(counts.filterSram.idle),
           col_ports);
    const std::uint64_t ofmap_used = counts.ofmapSram.reads()
        + counts.ofmapSram.writes();
    verify(ofmap_used + counts.ofmapSram.idle
               == std::max(col_ports, ofmap_used),
           law, scope,
           "ofmap SRAM reads %" PRIu64 " + writes %" PRIu64
           " + idle %" PRIu64 " != clamped port-cycles %" PRIu64,
           static_cast<std::uint64_t>(counts.ofmapSram.reads()),
           static_cast<std::uint64_t>(counts.ofmapSram.writes()),
           static_cast<std::uint64_t>(counts.ofmapSram.idle),
           col_ports);
    const std::uint64_t sram_words = counts.ifmapSram.reads()
        + counts.filterSram.reads() + counts.ofmapSram.reads()
        + counts.ofmapSram.writes();
    verify(counts.nocWords == sram_words, law, scope,
           "NoC words %" PRIu64 " != SRAM<->array words %" PRIu64,
           static_cast<std::uint64_t>(counts.nocWords), sram_words);

    if (!check_demand_agreement)
        return;
    law = "energy.demandAgreement";
    const auto sac = grid.sramAccessCounts();
    verify(counts.ifmapSram.reads() == sac.ifmapReads, law, scope,
           "trace ifmap reads %" PRIu64
           " != closed-form array-edge reads %" PRIu64,
           static_cast<std::uint64_t>(counts.ifmapSram.reads()),
           static_cast<std::uint64_t>(sac.ifmapReads));
    verify(counts.filterSram.reads() == sac.filterReads, law, scope,
           "trace filter reads %" PRIu64
           " != closed-form array-edge reads %" PRIu64,
           static_cast<std::uint64_t>(counts.filterSram.reads()),
           static_cast<std::uint64_t>(sac.filterReads));
    verify(counts.ofmapSram.writes() == sac.ofmapWrites, law, scope,
           "trace ofmap writes %" PRIu64
           " != closed-form array-edge writes %" PRIu64,
           static_cast<std::uint64_t>(counts.ofmapSram.writes()),
           static_cast<std::uint64_t>(sac.ofmapWrites));
    verify(counts.ofmapSram.reads() == sac.ofmapReads, law, scope,
           "trace ofmap accumulate-reads %" PRIu64
           " != closed-form array-edge reads %" PRIu64,
           static_cast<std::uint64_t>(counts.ofmapSram.reads()),
           static_cast<std::uint64_t>(sac.ofmapReads));
}

void
InvariantAuditor::auditMemoryTraffic(
    const systolic::LayerTiming& spad_totals,
    const systolic::MemoryStats& mem, std::string_view scope)
{
    const char* law = "mem.trafficConservation";
    verify(spad_totals.dramReadWords == mem.readWords, law, scope,
           "scratchpad-issued read words %" PRIu64
           " != memory-model read words %" PRIu64,
           spad_totals.dramReadWords,
           static_cast<std::uint64_t>(mem.readWords));
    verify(spad_totals.dramWriteWords == mem.writeWords, law, scope,
           "scratchpad-issued write words %" PRIu64
           " != memory-model write words %" PRIu64,
           spad_totals.dramWriteWords,
           static_cast<std::uint64_t>(mem.writeWords));
    verify(spad_totals.dramReadRequests == mem.readRequests, law,
           scope,
           "scratchpad read requests %" PRIu64
           " != memory-model read requests %" PRIu64,
           static_cast<std::uint64_t>(spad_totals.dramReadRequests),
           static_cast<std::uint64_t>(mem.readRequests));
    verify(spad_totals.dramWriteRequests == mem.writeRequests, law,
           scope,
           "scratchpad write requests %" PRIu64
           " != memory-model write requests %" PRIu64,
           static_cast<std::uint64_t>(spad_totals.dramWriteRequests),
           static_cast<std::uint64_t>(mem.writeRequests));
}

void
InvariantAuditor::auditArbiter(
    const multicore::MultiCoreTraceResult& result, bool l2_enabled,
    std::string_view scope)
{
    const char* law = "mc.arbConservation";
    std::uint64_t admitted = 0;
    for (const auto& port : result.ports)
        admitted += port.readRequests + port.writeRequests;
    verify(result.arb.grants == admitted, law, scope,
           "arbiter grants %" PRIu64
           " != per-port admitted transactions %" PRIu64,
           static_cast<std::uint64_t>(result.arb.grants), admitted);
    verify(result.arb.waiters.count == result.arb.grants, law, scope,
           "waiters histogram samples %" PRIu64 " != grants %" PRIu64,
           result.arb.waiters.count,
           static_cast<std::uint64_t>(result.arb.grants));
    if (l2_enabled) {
        verify(result.l1FillWords
                   == result.l2.hitWords + result.l2.missWords,
               law, scope,
               "L1 fill words %" PRIu64 " != L2 hit %" PRIu64
               " + miss %" PRIu64 " words",
               result.l1FillWords, result.l2.hitWords,
               result.l2.missWords);
    }
    // Port-level read-latency split (the per-core feed of the CPI
    // stack): whatever the shared backend left unattributed is folded
    // into readService by MemoryPort, so the four components must
    // cover every cycle of read latency exactly.
    for (std::size_t i = 0; i < result.ports.size(); ++i) {
        const auto& port = result.ports[i];
        const Cycle split = port.readPortWait + port.readQueueWait
            + port.readRefresh + port.readService;
        verify(split == port.totalReadLatency, "cpi.conservation",
               scope,
               "core %zu port read-latency split %" PRIu64
               " (port %" PRIu64 " + queue %" PRIu64 " + refresh %"
               PRIu64 " + service %" PRIu64
               ") != total read latency %" PRIu64,
               i, static_cast<std::uint64_t>(split),
               static_cast<std::uint64_t>(port.readPortWait),
               static_cast<std::uint64_t>(port.readQueueWait),
               static_cast<std::uint64_t>(port.readRefresh),
               static_cast<std::uint64_t>(port.readService),
               static_cast<std::uint64_t>(port.totalReadLatency));
    }
}

void
InvariantAuditor::auditRunTotals(
    Cycle run_total, Cycle run_compute, Cycle run_stall,
    std::uint64_t run_read_words, std::uint64_t run_write_words,
    Cycle sum_total, Cycle sum_compute, Cycle sum_stall,
    std::uint64_t sum_read_words, std::uint64_t sum_write_words,
    std::string_view scope)
{
    const char* law = "run.totalsAccounting";
    verify(run_total == sum_total, law, scope,
           "run totalCycles %" PRIu64
           " != weighted layer sum %" PRIu64,
           run_total, sum_total);
    verify(run_compute == sum_compute, law, scope,
           "run computeCycles %" PRIu64
           " != weighted layer sum %" PRIu64,
           run_compute, sum_compute);
    verify(run_stall == sum_stall, law, scope,
           "run stallCycles %" PRIu64
           " != weighted layer sum %" PRIu64,
           run_stall, sum_stall);
    verify(run_read_words == sum_read_words, law, scope,
           "run dramReadWords %" PRIu64
           " != weighted layer sum %" PRIu64,
           run_read_words, sum_read_words);
    verify(run_write_words == sum_write_words, law, scope,
           "run dramWriteWords %" PRIu64
           " != weighted layer sum %" PRIu64,
           run_write_words, sum_write_words);
}

} // namespace scalesim::check
