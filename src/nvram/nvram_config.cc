#include "nvram/nvram_config.hh"

#include <set>
#include <utility>

#include "common/logging.hh"

namespace vans::nvram
{

void
NvramConfig::validate() const
{
    if (numDimms < 1)
        fatal("[nvram] num_dimms must be at least 1 (got %u)",
              numDimms);
    if (dimmCapacity == 0)
        fatal("[nvram] dimm_capacity must be positive");
    if (interleaved) {
        // dimmOf routes with a divide + modulo; a zero or
        // non-power-of-two interleave granularity silently skews the
        // channel distribution every figure depends on.
        if (interleaveBytes < cacheLineSize ||
            (interleaveBytes & (interleaveBytes - 1)) != 0) {
            fatal("[nvram] interleave_bytes must be a power of two "
                  ">= %u (got %llu)",
                  cacheLineSize,
                  static_cast<unsigned long long>(interleaveBytes));
        }
        if (interleaveBytes > dimmCapacity)
            fatal("[nvram] interleave_bytes %llu exceeds "
                  "dimm_capacity %llu",
                  static_cast<unsigned long long>(interleaveBytes),
                  static_cast<unsigned long long>(dimmCapacity));
    }
    // The LSQ tracks a block's 64B lines in an 8-bit present mask and
    // finds a line's lane modulo the lines per block: a block below
    // one line divides by zero, one above 512B overflows the mask and
    // leaks LSQ entries that never drain.
    if (rmwLineBytes < cacheLineSize || rmwLineBytes > 8 * cacheLineSize ||
        (rmwLineBytes & (rmwLineBytes - 1)) != 0) {
        fatal("[nvram] rmw_line_bytes must be a power of two in "
              "[%u, %u] (got %u)",
              cacheLineSize, 8 * cacheLineSize, rmwLineBytes);
    }
    // A zero capacity never admits (reads park in the RPQ forever);
    // the media and AIT code divide or take a modulo by the rest.
    for (auto [key, value] : {std::pair<const char *, unsigned>{
                                  "lsq_entries", lsqEntries},
                              {"wpq_entries", wpqEntries},
                              {"rpq_entries", rpqEntries},
                              {"rmw_entries", rmwEntries},
                              {"ait_buf_entries", aitBufEntries},
                              {"media_partitions", mediaPartitions},
                              {"media_chunk_bytes", mediaChunkBytes}}) {
        if (value < 1)
            fatal("[nvram] %s must be at least 1 (got %u)", key, value);
    }
    // An AIT fill reads aitLineBytes / mediaChunkBytes chunks, which
    // must be a whole number and at least one.
    if ((aitLineBytes & (aitLineBytes - 1)) != 0 ||
        aitLineBytes % mediaChunkBytes != 0 || aitLineBytes == 0) {
        fatal("[nvram] ait_line_bytes must be a power of two and a "
              "multiple of media_chunk_bytes %u (got %u)",
              mediaChunkBytes, aitLineBytes);
    }
    // The sfence partial-drain charge tests wcFill % wcBufferBytes:
    // a buffer smaller than a line (or not a power of two) would
    // charge full-line NT streams at random.
    if (wcBufferBytes < cacheLineSize ||
        (wcBufferBytes & (wcBufferBytes - 1)) != 0) {
        fatal("[nvram] wc_buffer_bytes must be a power of two >= %u "
              "(got %u)",
              cacheLineSize, wcBufferBytes);
    }
    if (memoryMode()) {
        // The DRAM cache indexes sets with a mask; a non-power-of-two
        // capacity (or one below a single line) would fold distinct
        // lines onto the same set unevenly.
        if (dcacheCapacity < cacheLineSize ||
            (dcacheCapacity & (dcacheCapacity - 1)) != 0) {
            fatal("[nvram] dcache_capacity must be a power of two "
                  ">= %u (got %llu)",
                  cacheLineSize,
                  static_cast<unsigned long long>(dcacheCapacity));
        }
    }
}

NvramConfig
NvramConfig::optaneDefault()
{
    return NvramConfig{};
}

NvramConfig
NvramConfig::fromConfig(const Config &cfg)
{
    NvramConfig c;
    const std::string s = "nvram";
    // Every [nvram] read goes through these readers, which record the
    // key: a key none of them asked for is a typo or a stale option,
    // and must not quietly leave its default in place.
    std::set<std::string> known;
    auto str = [&](const char *key, const char *def) {
        known.insert(key);
        return cfg.get(s, key, def);
    };
    auto u64 = [&](const char *key, std::uint64_t def) {
        known.insert(key);
        return cfg.getU64(s, key, def);
    };
    auto u32 = [&](const char *key, std::uint32_t def) {
        return static_cast<std::uint32_t>(u64(key, def));
    };
    auto dbl = [&](const char *key, double def) {
        known.insert(key);
        return cfg.getDouble(s, key, def);
    };
    auto flag = [&](const char *key, bool def) {
        known.insert(key);
        return cfg.getBool(s, key, def);
    };

    std::string mode = str("mode", "app_direct");
    if (mode == "memory") {
        c.mode = SystemMode::Memory;
    } else if (mode != "app_direct" && mode != "appdirect") {
        fatal("[nvram] mode must be app_direct or memory (got %s)",
              mode.c_str());
    }
    c.dcacheCapacity = u64("dcache_capacity", c.dcacheCapacity);
    c.numDimms = u32("num_dimms", c.numDimms);
    c.interleaved = flag("interleaved", c.interleaved);
    c.interleaveBytes = u64("interleave_bytes", c.interleaveBytes);
    c.dimmCapacity = u64("dimm_capacity", c.dimmCapacity);
    c.wpqEntries = u32("wpq_entries", c.wpqEntries);
    c.rpqEntries = u32("rpq_entries", c.rpqEntries);
    c.coreToImcNs = dbl("core_to_imc_ns", c.coreToImcNs);
    c.busCmdNs = dbl("bus_cmd_ns", c.busCmdNs);
    c.busDataPer64bNs = dbl("bus_data_per_64b_ns", c.busDataPer64bNs);
    c.busTurnaroundNs = dbl("bus_turnaround_ns", c.busTurnaroundNs);
    c.wpqGrantNs = dbl("wpq_grant_ns", c.wpqGrantNs);
    c.lsqEntries = u32("lsq_entries", c.lsqEntries);
    c.lsqProbeNs = dbl("lsq_probe_ns", c.lsqProbeNs);
    c.lsqEpochNs = dbl("lsq_epoch_ns", c.lsqEpochNs);
    c.rmwEntries = u32("rmw_entries", c.rmwEntries);
    c.rmwLineBytes = u32("rmw_line_bytes", c.rmwLineBytes);
    c.rmwAccessNs = dbl("rmw_access_ns", c.rmwAccessNs);
    c.aitBufEntries = u32("ait_buf_entries", c.aitBufEntries);
    c.aitLineBytes = u32("ait_line_bytes", c.aitLineBytes);
    c.aitTagNs = dbl("ait_tag_ns", c.aitTagNs);
    c.mediaChunkBytes = u32("media_chunk_bytes", c.mediaChunkBytes);
    c.mediaPartitions = u32("media_partitions", c.mediaPartitions);
    c.mediaReadNs = dbl("media_read_ns", c.mediaReadNs);
    c.mediaWriteNs = dbl("media_write_ns", c.mediaWriteNs);
    c.wearBlockBytes = u64("wear_block_bytes", c.wearBlockBytes);
    c.wearThreshold = u64("wear_threshold", c.wearThreshold);
    c.migrationUs = dbl("migration_us", c.migrationUs);
    c.dimmCtrlNs = dbl("dimm_ctrl_ns", c.dimmCtrlNs);
    c.clwbExtraNs = dbl("clwb_extra_ns", c.clwbExtraNs);
    c.wcBufferBytes = u32("wc_buffer_bytes", c.wcBufferBytes);
    c.wcPartialDrainNs = dbl("wc_partial_drain_ns", c.wcPartialDrainNs);
    c.verify = flag("verify", c.verify);
    c.trace = cfg.getBool("trace", "enable", c.trace);
    for (const std::string &key : cfg.keys(s)) {
        if (!known.count(key))
            fatal("[nvram] unknown key '%s'", key.c_str());
    }
    for (const std::string &key : cfg.keys("trace")) {
        if (key != "enable")
            fatal("[trace] unknown key '%s'", key.c_str());
    }
    for (const std::string &section : cfg.sections()) {
        if (section != s && section != "trace")
            fatal("unknown config section '[%s]'", section.c_str());
    }
    // Reject malformed topologies at parse time, before any world is
    // built from this configuration.
    c.validate();
    return c;
}

} // namespace vans::nvram
