#include "layers.hh"

#include <cstring>

#include "common/check.hh"
#include "common/metrics.hh"
#include "common/stats.hh"

namespace perfbench
{

namespace
{

/**
 * The layer of every group metricsInto() exports, in export order:
 * the iMC, then one block per DIMM, then the system-wide groups.
 */
std::vector<std::string>
layerOrder(vans::nvram::VansSystem &sys)
{
    std::vector<std::string> order{"imc"};
    for (unsigned i = 0; i < sys.imc().numDimms(); ++i) {
        for (const char *l :
             {"chan", "lsq", "rmw", "ait", "media", "wear", "dram"})
            order.push_back(l);
        if (sys.config().memoryMode()) {
            order.push_back("dcache");
            order.push_back("dram");
        }
    }
    for (const char *l : {"requests", "kernel", "reqpool"})
        order.push_back(l);
    return order;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Layers whose counters are simulated results (not host work). */
bool
isModelKey(const std::string &key)
{
    // The event kernel and the request pool count host-side work;
    // a simulator-only change may move them without moving any
    // simulated result.
    for (const char *host : {"kernel.", "reqpool.", "requests."}) {
        if (key.rfind(host, 0) == 0)
            return false;
    }
    return true;
}

} // namespace

Counters
readCounters(vans::nvram::VansSystem &sys)
{
    vans::MetricsRegistry reg;
    sys.metricsInto(reg);
    std::vector<std::string> order = layerOrder(sys);
    VANS_REQUIRE("perfbench", 0, reg.size() == order.size(),
                 "metricsInto exported %zu groups, the layer map "
                 "expects %zu",
                 reg.size(), order.size());
    Counters c;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const vans::StatGroup &g = *reg.all()[i];
        const std::string &layer = order[i];
        for (const auto &[name, s] : g.allScalars())
            c[layer + "." + name] += static_cast<double>(s.value());
        for (const auto &[name, a] : g.allAverages()) {
            c[layer + "." + name + ".sum"] += a.rawSum();
            c[layer + "." + name + ".n"] +=
                static_cast<double>(a.count());
        }
    }
    return c;
}

void
addDelta(Counters &acc, const Counters &after, const Counters &before)
{
    for (const auto &[k, v] : after) {
        auto it = before.find(k);
        acc[k] += v - (it == before.end() ? 0 : it->second);
    }
}

double
modelDigest(const Counters &c, const std::vector<std::uint64_t> &extra)
{
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](const void *p, std::size_t n) {
        const auto *b = static_cast<const unsigned char *>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 1099511628211ull;
        }
    };
    for (const auto &[k, v] : c) {
        if (!isModelKey(k))
            continue;
        mix(k.data(), k.size());
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        mix(&bits, sizeof bits);
    }
    for (std::uint64_t x : extra)
        mix(&x, sizeof x);
    return static_cast<double>(h & ((1ull << 53) - 1));
}

std::vector<std::string>
checkDimmTotals(vans::nvram::VansSystem &sys)
{
    vans::MetricsRegistry reg;
    sys.metricsInto(reg);
    std::vector<std::string> order = layerOrder(sys);
    std::uint64_t reads = 0, writes = 0, migrations = 0;
    unsigned mediaGroups = 0, wearGroups = 0;
    for (std::size_t i = 0; i < order.size() && i < reg.size(); ++i) {
        const vans::StatGroup &g = *reg.all()[i];
        if (order[i] == "media") {
            reads += g.scalarValue("chunk_reads");
            writes += g.scalarValue("chunk_writes");
            ++mediaGroups;
        } else if (order[i] == "wear") {
            migrations += g.scalarValue("migrations");
            ++wearGroups;
        }
    }
    std::vector<std::string> bad;
    auto expect = [&bad](const char *what, std::uint64_t got,
                         std::uint64_t want) {
        if (got != want) {
            bad.push_back(std::string(what) + ": per-DIMM sum " +
                          std::to_string(got) + " != total " +
                          std::to_string(want));
        }
    };
    expect("media groups", mediaGroups, sys.imc().numDimms());
    expect("wear groups", wearGroups, sys.imc().numDimms());
    expect("media reads", reads, sys.totalMediaReads());
    expect("media writes", writes, sys.totalMediaWrites());
    expect("wear migrations", migrations, sys.totalMigrations());
    return bad;
}

std::vector<Metric>
layerMetrics(const Counters &d, double requests)
{
    auto v = [&d](const std::string &k) {
        auto it = d.find(k);
        return it == d.end() ? 0.0 : it->second;
    };
    auto mean = [&v](const std::string &k) {
        return ratio(v(k + ".sum"), v(k + ".n"));
    };
    double cmds = v("dram.cmd_act") + v("dram.cmd_pre") +
                  v("dram.cmd_rd") + v("dram.cmd_wr") + v("dram.cmd_ref");
    return {
        {"kernel.events_per_req",
         ratio(v("kernel.events_executed"), requests), "count/req"},
        {"kernel.scheduled_per_req",
         ratio(v("kernel.events_scheduled"), requests), "count/req"},
        {"kernel.heap_spills_per_req",
         ratio(v("kernel.callback_heap_spills"), requests), "count/req"},

        {"imc.wpq_stalls_per_write",
         ratio(v("chan.wpq_stalls"), v("imc.writes")), "count/write"},
        {"imc.wpq_merges", v("chan.wpq_merges"), "count"},
        {"imc.bus_turnarounds", v("chan.bus_turnarounds"), "count"},
        {"imc.wpq_read_hazards", v("chan.wpq_read_hazards"), "count"},

        {"lsq.drain_lines_mean", mean("lsq.drain_lines"), "lines"},
        {"lsq.partial_drains", v("lsq.partial_drains"), "count"},
        {"lsq.seals", v("lsq.seals"), "count"},

        {"rmw.read_hit_ratio",
         ratio(v("rmw.read_hits"), v("rmw.read_hits") + v("rmw.read_misses")),
         "ratio"},
        {"rmw.fills_per_write", ratio(v("rmw.rmw_fills"), v("rmw.writes")),
         "count/write"},
        {"rmw.evictions", v("rmw.evictions"), "count"},

        {"ait.buf_hit_ratio",
         ratio(v("ait.buf_hits"), v("ait.buf_hits") + v("ait.buf_misses")),
         "ratio"},
        {"ait.miss_crit_ns_mean", mean("ait.miss_crit_ns"), "ns"},
        {"ait.miss_table_ns_mean", mean("ait.miss_table_ns"), "ns"},
        {"ait.write_intake_ns_mean", mean("ait.write_intake_ns"), "ns"},

        {"dram.cmds_per_access",
         ratio(cmds, v("dram.read_accesses") + v("dram.write_accesses")),
         "count/access"},
        {"dram.row_hit_ratio",
         ratio(v("dram.row_hits"), v("dram.row_hits") + v("dram.row_misses") +
                                       v("dram.row_conflicts")),
         "ratio"},
        {"dram.read_latency_ns_mean", mean("dram.read_latency_ns"), "ns"},
        {"dram.write_latency_ns_mean", mean("dram.write_latency_ns"), "ns"},
        {"dram.refreshes", v("dram.cmd_ref"), "count"},

        {"media.reads_per_req", ratio(v("media.chunk_reads"), requests),
         "count/req"},
        {"media.writes_per_req", ratio(v("media.chunk_writes"), requests),
         "count/req"},
        {"media.read_queue_ns_mean", mean("media.read_queue_ns"), "ns"},
        {"media.write_queue_ns_mean", mean("media.write_queue_ns"), "ns"},
        {"wear.migrations", v("wear.migrations"), "count"},

        {"dcache.hit_ratio",
         ratio(v("dcache.hits"), v("dcache.hits") + v("dcache.misses")),
         "ratio"},
        {"dcache.fills", v("dcache.fills"), "count"},
        {"dcache.dirty_evicts", v("dcache.dirty_evicts"), "count"},
        {"dcache.writethroughs", v("dcache.writethroughs"), "count"},
        {"dcache.mshr_merges", v("dcache.mshr_merges"), "count"},
    };
}

} // namespace perfbench
