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

    void
    hit()
    {
        // A string key and a map walk on every read hit.
        statGroup.scalar("hits").inc();
    }

    StatGroup &stats() { return statGroup; }

  private:
    StatGroup statGroup;
};

} // namespace vans::nvram

#endif
