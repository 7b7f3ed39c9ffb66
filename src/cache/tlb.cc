#include "cache/tlb.hh"

#include "common/logging.hh"

namespace vans::cache
{

bool
Tlb::Level::lookup(std::uint64_t page, bool bump)
{
    auto &set = data[page & (sets - 1)];
    for (auto it = set.begin(); it != set.end(); ++it) {
        if (*it == page) {
            if (bump)
                set.splice(set.begin(), set, it);
            return true;
        }
    }
    return false;
}

void
Tlb::Level::insert(std::uint64_t page)
{
    auto &set = data[page & (sets - 1)];
    for (auto it = set.begin(); it != set.end(); ++it) {
        if (*it == page) {
            set.splice(set.begin(), set, it);
            return;
        }
    }
    set.push_front(page);
    while (set.size() > ways)
        set.pop_back();
}

Tlb::Tlb(const TlbParams &params)
    : p(params), statGroup(params.name)
{
    l1.ways = p.l1Ways;
    l1.sets = p.l1Entries / p.l1Ways;
    if (!isPowerOf2(l1.sets))
        fatal("TLB L1 set count must be a power of two");
    l1.data.resize(l1.sets);

    stlb.ways = p.stlbWays;
    stlb.sets = p.stlbEntries / p.stlbWays;
    if (!isPowerOf2(stlb.sets))
        fatal("STLB set count must be a power of two");
    stlb.data.resize(stlb.sets);
}

TlbResult
Tlb::access(Addr addr)
{
    std::uint64_t page = pageOf(addr);
    TlbResult r;
    sAccesses.inc();
    if (l1.lookup(page, true)) {
        r.l1Hit = true;
        return r;
    }
    sL1Misses.inc();
    if (stlb.lookup(page, true)) {
        r.stlbHit = true;
        l1.insert(page);
        return r;
    }
    sWalks.inc();
    r.walk = true;
    stlb.insert(page);
    l1.insert(page);
    return r;
}

bool
Tlb::install(Addr addr)
{
    std::uint64_t page = pageOf(addr);
    bool fresh = !l1.lookup(page, false) && !stlb.lookup(page, false);
    stlb.insert(page);
    l1.insert(page);
    if (fresh)
        sPretranslationInstalls.inc();
    return fresh;
}

bool
Tlb::contains(Addr addr) const
{
    std::uint64_t page = pageOf(addr);
    auto &self = const_cast<Tlb &>(*this);
    return self.l1.lookup(page, false) || self.stlb.lookup(page, false);
}

double
Tlb::walkRate() const
{
    double a = static_cast<double>(sAccesses.value());
    double w = static_cast<double>(sWalks.value());
    return a > 0 ? w / a : 0;
}

} // namespace vans::cache
