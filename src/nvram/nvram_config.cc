#include "nvram/nvram_config.hh"

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
    if (lsqEntries < 1)
        fatal("[nvram] lsq_entries must be at least 1 (got %u)",
              lsqEntries);
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
    std::string mode = cfg.get(s, "mode", "app_direct");
    if (mode == "memory") {
        c.mode = SystemMode::Memory;
    } else if (mode != "app_direct" && mode != "appdirect") {
        fatal("[nvram] mode must be app_direct or memory (got %s)",
              mode.c_str());
    }
    c.dcacheCapacity =
        cfg.getU64(s, "dcache_capacity", c.dcacheCapacity);
    c.numDimms = static_cast<unsigned>(
        cfg.getU64(s, "num_dimms", c.numDimms));
    c.interleaved = cfg.getBool(s, "interleaved", c.interleaved);
    c.interleaveBytes =
        cfg.getU64(s, "interleave_bytes", c.interleaveBytes);
    c.dimmCapacity = cfg.getU64(s, "dimm_capacity", c.dimmCapacity);
    c.wpqEntries = static_cast<unsigned>(
        cfg.getU64(s, "wpq_entries", c.wpqEntries));
    c.rpqEntries = static_cast<unsigned>(
        cfg.getU64(s, "rpq_entries", c.rpqEntries));
    c.coreToImcNs = cfg.getDouble(s, "core_to_imc_ns", c.coreToImcNs);
    c.busCmdNs = cfg.getDouble(s, "bus_cmd_ns", c.busCmdNs);
    c.busDataPer64bNs =
        cfg.getDouble(s, "bus_data_per_64b_ns", c.busDataPer64bNs);
    c.busTurnaroundNs =
        cfg.getDouble(s, "bus_turnaround_ns", c.busTurnaroundNs);
    c.wpqGrantNs = cfg.getDouble(s, "wpq_grant_ns", c.wpqGrantNs);
    c.lsqEntries = static_cast<unsigned>(
        cfg.getU64(s, "lsq_entries", c.lsqEntries));
    c.lsqProbeNs = cfg.getDouble(s, "lsq_probe_ns", c.lsqProbeNs);
    c.lsqEpochNs = cfg.getDouble(s, "lsq_epoch_ns", c.lsqEpochNs);
    c.rmwEntries = static_cast<unsigned>(
        cfg.getU64(s, "rmw_entries", c.rmwEntries));
    c.rmwLineBytes = static_cast<std::uint32_t>(
        cfg.getU64(s, "rmw_line_bytes", c.rmwLineBytes));
    c.rmwAccessNs = cfg.getDouble(s, "rmw_access_ns", c.rmwAccessNs);
    c.aitBufEntries = static_cast<unsigned>(
        cfg.getU64(s, "ait_buf_entries", c.aitBufEntries));
    c.aitLineBytes = static_cast<std::uint32_t>(
        cfg.getU64(s, "ait_line_bytes", c.aitLineBytes));
    c.aitTagNs = cfg.getDouble(s, "ait_tag_ns", c.aitTagNs);
    c.mediaChunkBytes = static_cast<std::uint32_t>(
        cfg.getU64(s, "media_chunk_bytes", c.mediaChunkBytes));
    c.mediaPartitions = static_cast<unsigned>(
        cfg.getU64(s, "media_partitions", c.mediaPartitions));
    c.mediaReadNs = cfg.getDouble(s, "media_read_ns", c.mediaReadNs);
    c.mediaWriteNs = cfg.getDouble(s, "media_write_ns", c.mediaWriteNs);
    c.wearBlockBytes =
        cfg.getU64(s, "wear_block_bytes", c.wearBlockBytes);
    c.wearThreshold = cfg.getU64(s, "wear_threshold", c.wearThreshold);
    c.migrationUs = cfg.getDouble(s, "migration_us", c.migrationUs);
    c.dimmCtrlNs = cfg.getDouble(s, "dimm_ctrl_ns", c.dimmCtrlNs);
    c.clwbExtraNs = cfg.getDouble(s, "clwb_extra_ns", c.clwbExtraNs);
    c.wcBufferBytes = static_cast<std::uint32_t>(
        cfg.getU64(s, "wc_buffer_bytes", c.wcBufferBytes));
    c.wcPartialDrainNs =
        cfg.getDouble(s, "wc_partial_drain_ns", c.wcPartialDrainNs);
    c.verify = cfg.getBool(s, "verify", c.verify);
    c.trace = cfg.getBool("trace", "enable", c.trace);
    // Reject malformed topologies at parse time, before any world is
    // built from this configuration.
    c.validate();
    return c;
}

} // namespace vans::nvram
