/**
 * @file
 * Simplified DVFS-style throttling policy (extension).
 *
 * The paper argues DVS performs comparably to stop-and-go for its
 * purposes and does not scale (Section 4); we include a simplified
 * duty-cycle model as an ablation baseline: on trigger the pipeline
 * runs every Nth cycle (frequency divided by N) until the hot spot
 * cools. Only the frequency scales: the supply voltage, and with it
 * the per-access energy, stays at its nominal value.
 */

#ifndef HS_CORE_DVFS_HH
#define HS_CORE_DVFS_HH

#include "core/dtm_policy.hh"

namespace hs {

/** Trigger/resume thresholds and slow-down factor. */
struct DvfsParams
{
    Kelvin triggerTemp = 357.0;
    Kelvin resumeTemp = 355.0;
    int slowdownFactor = 2; ///< run 1 of every N cycles when hot
};

/** Duty-cycle frequency-scaling policy. */
class DvfsThrottle : public DtmPolicy
{
  public:
    explicit DvfsThrottle(const DvfsParams &params = {})
        : params_(params)
    {
    }

    const char *name() const override { return "dvfs-throttle"; }

    void atSensorSample(Cycles now, const std::vector<Kelvin> &temps,
                        DtmControl &control) override;

    uint64_t triggers() const { return triggers_; }
    bool engaged() const { return engaged_; }

  private:
    DvfsParams params_;
    bool engaged_ = false;
    uint64_t triggers_ = 0;
};

} // namespace hs

#endif // HS_CORE_DVFS_HH
