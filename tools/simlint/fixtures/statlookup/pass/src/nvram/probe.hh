#ifndef FIXTURE_NVRAM_PROBE_HH
#define FIXTURE_NVRAM_PROBE_HH

namespace vans::nvram
{

/** Buffer probe (RMW-buffer read-hit shape). */
class Probe
{
  public:
    explicit Probe(const std::string &name) : statGroup(name)
    {
        statGroup.scalar("misses");
    }

    void hit() { sHits.inc(); }

    StatGroup &stats() { return statGroup; }

    void
    statsInto(StatGroup &out) const
    {
        out.scalar("hits").set(sHits.value());
    }

  private:
    StatGroup statGroup;
    // Registered at construction; the event path holds the handle.
    StatScalar &sHits = statGroup.scalar("hits");
};

} // namespace vans::nvram

#endif
