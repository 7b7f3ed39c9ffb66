#include "cache/cache.hh"

#include <algorithm>
#include <span>

#include "common/logging.hh"

namespace vans::cache
{

Cache::Cache(const CacheParams &params)
    : p(params),
      statGroup(params.name)
{
    if (p.ways == 0 || p.ways > 1u << 16)
        fatal("cache %s: ways must be in [1, 65536]", p.name.c_str());
    std::uint64_t num_lines = p.sizeBytes / p.lineBytes;
    if (num_lines % p.ways != 0)
        fatal("cache %s: size/ways mismatch", p.name.c_str());
    numSets = static_cast<unsigned>(num_lines / p.ways);
    if (!isPowerOf2(numSets))
        fatal("cache %s: set count must be a power of two",
              p.name.c_str());
    lines.resize(num_lines);
    lruOrder.resize(num_lines);
    for (std::uint64_t base = 0; base < num_lines; base += p.ways) {
        for (unsigned w = 0; w < p.ways; ++w)
            lruOrder[base + w] = static_cast<std::uint16_t>(w);
    }
}

std::uint64_t
Cache::setIndex(Addr addr) const
{
    return (addr / p.lineBytes) & (numSets - 1);
}

Addr
Cache::tagOf(Addr addr) const
{
    return (addr / p.lineBytes) >> log2i(numSets);
}

CacheAccessResult
Cache::access(Addr addr, bool write)
{
    CacheAccessResult res;
    std::uint64_t base = setIndex(addr) * p.ways;
    Line *set = &lines[base];
    std::uint16_t *order = &lruOrder[base];
    Addr tag = tagOf(addr);
    // Move the way at recency position @p i to the MRU position.
    auto promote = [order](unsigned i) {
        std::rotate(order, order + i, order + i + 1);
    };

    for (unsigned i = 0; i < p.ways; ++i) {
        Line &l = set[order[i]];
        if (l.valid && l.tag == tag) {
            res.hit = true;
            l.dirty = l.dirty || write;
            promote(i);
            sHits.inc();
            return res;
        }
    }

    sMisses.inc();
    // Fill into an invalid way when one exists (a clflushopt'd line
    // leaves a free slot behind); only a full set evicts the LRU way.
    unsigned pos = p.ways - 1;
    for (unsigned i = 0; i < p.ways; ++i) {
        if (!set[order[i]].valid) {
            pos = i;
            break;
        }
    }
    Line &l = set[order[pos]];
    if (l.valid && l.dirty) {
        res.writeback = true;
        // Reconstruct the victim address.
        res.writebackAddr =
            ((l.tag << log2i(numSets)) | setIndex(addr)) * p.lineBytes;
        sWritebacks.inc();
    }
    l.valid = true;
    l.dirty = write;
    l.tag = tag;
    promote(pos);
    return res;
}

bool
Cache::contains(Addr addr) const
{
    const Line *set = &lines[setIndex(addr) * p.ways];
    Addr tag = tagOf(addr);
    for (const Line &l : std::span(set, p.ways)) {
        if (l.valid && l.tag == tag)
            return true;
    }
    return false;
}

bool
Cache::invalidate(Addr addr)
{
    Line *set = &lines[setIndex(addr) * p.ways];
    Addr tag = tagOf(addr);
    for (Line &l : std::span(set, p.ways)) {
        if (l.valid && l.tag == tag) {
            bool was_dirty = l.dirty;
            l.valid = false;
            l.dirty = false;
            return was_dirty;
        }
    }
    return false;
}

bool
Cache::clean(Addr addr)
{
    Line *set = &lines[setIndex(addr) * p.ways];
    Addr tag = tagOf(addr);
    for (Line &l : std::span(set, p.ways)) {
        if (l.valid && l.tag == tag && l.dirty) {
            l.dirty = false;
            return true;
        }
    }
    return false;
}

double
Cache::missRate() const
{
    double h = static_cast<double>(sHits.value());
    double m = static_cast<double>(sMisses.value());
    return (h + m) > 0 ? m / (h + m) : 0;
}

} // namespace vans::cache
