#include "multicore/shared_l2.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace scalesim::multicore
{

namespace
{

/** table_ starts at 16 buckets and doubles as lines arrive. */
constexpr int kInitialTableBits = 4;

} // namespace

SharedL2::SharedL2(const SharedL2Config& cfg,
                   systolic::MainMemory& backing)
    : cfg_(cfg), backing_(backing),
      capacityLines_(cfg.capacityWords
                     / std::max<std::uint32_t>(1, cfg.lineWords)),
      table_(std::size_t{1} << kInitialTableBits, kNil),
      tableBits_(kInitialTableBits)
{
    if (cfg_.lineWords == 0)
        fatal("L2 line size must be non-zero");
    if (capacityLines_ == 0)
        fatal("L2 capacity below one line");
    if (cfg_.wordsPerCycle <= 0.0)
        fatal("L2 bandwidth must be positive");
}

void
SharedL2::invalidate()
{
    // Keep the arrays' storage: the next layer refills them.
    slots_.clear();
    head_ = tail_ = kNil;
    std::fill(table_.begin(), table_.end(), kNil);
}

std::size_t
SharedL2::home(std::uint64_t line) const
{
    // Fibonacci hashing spreads runs of consecutive lines.
    return static_cast<std::size_t>((line * 0x9E3779B97F4A7C15ull)
                                    >> (64 - tableBits_));
}

std::size_t
SharedL2::probe(std::uint64_t line) const
{
    const std::size_t mask = table_.size() - 1;
    std::size_t pos = home(line);
    while (table_[pos] != kNil && slots_[table_[pos]].line != line)
        pos = (pos + 1) & mask;
    return pos;
}

void
SharedL2::eraseBucket(std::size_t pos)
{
    const std::size_t mask = table_.size() - 1;
    std::size_t hole = pos;
    for (std::size_t i = (pos + 1) & mask; table_[i] != kNil;
         i = (i + 1) & mask) {
        // The entry at i may fill the hole when the hole lies on its
        // probe path, i.e. cyclically within [its home, i).
        const std::size_t h = home(slots_[table_[i]].line);
        if (((i - h) & mask) >= ((i - hole) & mask)) {
            table_[hole] = table_[i];
            hole = i;
        }
    }
    table_[hole] = kNil;
}

void
SharedL2::growTable()
{
    ++tableBits_;
    table_.assign(std::size_t{1} << tableBits_, kNil);
    for (std::uint32_t s = 0; s < slots_.size(); ++s)
        table_[probe(slots_[s].line)] = s;
}

void
SharedL2::unlink(std::uint32_t s)
{
    Slot& slot = slots_[s];
    if (slot.prev != kNil)
        slots_[slot.prev].next = slot.next;
    else
        head_ = slot.next;
    if (slot.next != kNil)
        slots_[slot.next].prev = slot.prev;
    else
        tail_ = slot.prev;
}

void
SharedL2::pushFront(std::uint32_t s)
{
    slots_[s].prev = kNil;
    slots_[s].next = head_;
    if (head_ != kNil)
        slots_[head_].prev = s;
    else
        tail_ = s;
    head_ = s;
}

bool
SharedL2::lookup(std::uint64_t line)
{
    const std::size_t pos = probe(line);
    if (table_[pos] != kNil) {
        const std::uint32_t s = table_[pos];
        if (s != head_) {
            unlink(s);
            pushFront(s);
        }
        return true;
    }
    std::uint32_t s;
    if (slots_.size() < capacityLines_) {
        if (slots_.size() == kNil)
            fatal("L2 holds more lines than a slot index addresses");
        s = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back({line, kNil, kNil});
        if (2 * slots_.size() > table_.size())
            growTable(); // re-inserts the new slot too
        else
            table_[pos] = s;
    } else {
        // Full: the least recently used line gives up its slot.
        s = tail_;
        eraseBucket(probe(slots_[s].line));
        unlink(s);
        slots_[s].line = line;
        table_[probe(line)] = s;
    }
    pushFront(s);
    return false;
}

Cycle
SharedL2::busOccupy(Count words, Cycle now)
{
    const double start = std::max(static_cast<double>(now), busFree_);
    lastWait_ = static_cast<Cycle>(start) - now;
    busFree_ = start + static_cast<double>(words) / cfg_.wordsPerCycle;
    return static_cast<Cycle>(std::ceil(busFree_));
}

Cycle
SharedL2::issueRead(Addr addr, Count words, Cycle now)
{
    // Walk the lines the request covers; misses go to the backing
    // memory at line granularity (the L2 refill unit).
    const std::uint64_t first_line = addr / cfg_.lineWords;
    const std::uint64_t last_line = (addr + words - 1) / cfg_.lineWords;
    Cycle data_ready = now + cfg_.hitLatency;
    for (std::uint64_t line = first_line; line <= last_line; ++line) {
        ++l2Stats_.lookups;
        // Words of *this request* the line covers (so that hitWords +
        // missWords across requests sums to the words served to cores;
        // refill traffic is line-granular and counted by the backing).
        const std::uint64_t line_lo = line * cfg_.lineWords;
        const std::uint64_t overlap =
            std::min<std::uint64_t>(addr + words,
                                    line_lo + cfg_.lineWords)
            - std::max<std::uint64_t>(addr, line_lo);
        if (lookup(line)) {
            ++l2Stats_.hits;
            l2Stats_.hitWords += overlap;
        } else {
            l2Stats_.missWords += overlap;
            const Cycle fill = backing_.issueRead(
                line * cfg_.lineWords, cfg_.lineWords, now);
            data_ready = std::max(data_ready, fill + cfg_.hitLatency);
        }
    }
    const Cycle done = std::max(busOccupy(words, now),
                                data_ready);
    ++stats_.readRequests;
    stats_.readWords += words;
    stats_.totalReadLatency += done - now;
    return done;
}

Cycle
SharedL2::issueWrite(Addr addr, Count words, Cycle now)
{
    // Write-through at line granularity: the line is allocated in L2
    // (later partial-sum reloads hit) and the data drains to backing
    // memory in the background.
    const std::uint64_t first_line = addr / cfg_.lineWords;
    const std::uint64_t last_line = (addr + words - 1) / cfg_.lineWords;
    for (std::uint64_t line = first_line; line <= last_line; ++line)
        lookup(line);
    l2Stats_.writeWords += words;
    backing_.issueWrite(addr, words, now);
    const Cycle done = busOccupy(words, now);
    ++stats_.writeRequests;
    stats_.writeWords += words;
    stats_.totalWriteLatency += done - now;
    return done;
}

} // namespace scalesim::multicore
