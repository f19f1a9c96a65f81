/**
 * @file
 * Tests for the Section 6.3 overhead-reduction extensions: the
 * fork-confidence gate (skips useless fork points, keeps useful ones,
 * re-probes) and dedicated slice resources (separate fetch/window/
 * issue for helper threads), plus exact counters of the three Section
 * 6.3 ablation configurations.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace specslice;

namespace
{

workloads::Params
params()
{
    workloads::Params p;
    p.scale = 250'000;
    return p;
}

core::RunOptions
opts()
{
    core::RunOptions o;
    o.maxMainInstructions = 80'000;
    o.warmupInstructions = 30'000;
    return o;
}

} // namespace

TEST(ForkGate, KeepsUsefulForkPointsUngated)
{
    // vpr's slice is consumed constantly: the gate must never engage,
    // and results must match the ungated run exactly.
    auto wl = workloads::buildVpr(params());

    sim::Simulator plain(sim::MachineConfig::fourWide());
    auto r1 = plain.run(wl, opts(), true);

    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.forkConfidenceGating = true;
    sim::Simulator gated(cfg);
    auto r2 = gated.run(wl, opts(), true);

    EXPECT_EQ(r2.detail.get("forks_gated"), 0u);
    EXPECT_EQ(r1.cycles, r2.cycles);
    EXPECT_EQ(r1.forks, r2.forks);
}

TEST(ForkGate, GatesUselessForkPoints)
{
    // crafty's slice predictions are essentially always late and
    // unconsumed: the gate should shut most forks off.
    auto wl = workloads::buildCrafty(params());

    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.forkConfidenceGating = true;
    sim::Simulator gated(cfg);
    auto r = gated.run(wl, opts(), true);

    EXPECT_GT(r.detail.get("forks_gated"), 200u);
    // And it keeps probing rather than shutting off forever.
    EXPECT_GT(r.forks, 10u);
}

TEST(ForkGate, ReducesSliceOverheadWhereUseless)
{
    auto wl = workloads::buildCrafty(params());

    sim::Simulator plain(sim::MachineConfig::fourWide());
    auto r1 = plain.run(wl, opts(), true);

    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.forkConfidenceGating = true;
    sim::Simulator gated(cfg);
    auto r2 = gated.run(wl, opts(), true);

    EXPECT_LT(r2.sliceFetched * 2, r1.sliceFetched + 1000);
}

TEST(DedicatedResources, RecoverOverheadBoundBenchmark)
{
    // bzip2 loses with shared resources; with dedicated slice
    // hardware the overhead vanishes and it must at least break even.
    auto wl = workloads::buildBzip2(params());

    sim::Simulator base_sim(sim::MachineConfig::fourWide());
    auto base = base_sim.runBaseline(wl, opts());

    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.dedicatedSliceResources = true;
    sim::Simulator ded(cfg);
    auto r = ded.run(wl, opts(), true);

    EXPECT_LE(r.cycles, base.cycles * 101 / 100)
        << "dedicated-resource slices must not lose on bzip2";
}

TEST(DedicatedResources, ArchitecturallyTransparent)
{
    // Same retired work, same predictions semantics.
    auto wl = workloads::buildTwolf(params());

    sim::Simulator plain(sim::MachineConfig::fourWide());
    auto r1 = plain.run(wl, opts(), true);

    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.dedicatedSliceResources = true;
    sim::Simulator ded(cfg);
    auto r2 = ded.run(wl, opts(), true);

    EXPECT_NEAR(static_cast<double>(r1.mainRetired),
                static_cast<double>(r2.mainRetired), 8.0);
    // Overrides stay essentially perfect in both modes.
    if (r2.correlatorUsed > 100) {
        EXPECT_LT(r2.correlatorWrong * 100, r2.correlatorUsed * 3);
    }
}

TEST(DedicatedResources, SlicesFetchInParallelWithMain)
{
    // With a dedicated port the helper threads fetch more (they no
    // longer wait for the main thread to stall).
    auto wl = workloads::buildVpr(params());

    sim::Simulator plain(sim::MachineConfig::fourWide());
    auto r1 = plain.run(wl, opts(), true);

    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.dedicatedSliceResources = true;
    sim::Simulator ded(cfg);
    auto r2 = ded.run(wl, opts(), true);

    EXPECT_GE(r2.sliceFetched + 1000, r1.sliceFetched);
    EXPECT_GT(r2.forks, 100u);
}

// ---------------------------------------------------------------
// Exact counters of the Section 6.3 ablation configurations. Golden
// digests pin only the default machine; these pin the three switches
// the overhead study flips, so a host-speed change to the core that
// perturbs any of them shows up as a counter diff.

namespace
{

struct AblationPin
{
    const char *workload;
    std::uint64_t cycles;
    std::uint64_t forks;
    std::uint64_t sliceFetched;
    std::uint64_t slicesTerminatedDead;
    std::uint64_t mispredictions;
};

void
checkPins(const sim::MachineConfig &cfg,
          const std::vector<AblationPin> &pins)
{
    for (const AblationPin &pin : pins) {
        const std::string name = pin.workload;
        auto wl = name == "vpr" ? workloads::buildVpr(params())
                                : workloads::buildMcf(params());
        sim::Simulator simr(cfg);
        auto r = simr.run(wl, opts(), true);
        EXPECT_EQ(r.cycles, pin.cycles) << name;
        EXPECT_EQ(r.forks, pin.forks) << name;
        EXPECT_EQ(r.sliceFetched, pin.sliceFetched) << name;
        EXPECT_EQ(r.detail.get("slices_terminated_dead"),
                  pin.slicesTerminatedDead)
            << name;
        EXPECT_EQ(r.mispredictions, pin.mispredictions) << name;
    }
}

} // namespace

TEST(AblationPin, NoDeadSliceTermination)
{
    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.terminateDeadSlices = false;
    checkPins(cfg, {{"vpr", 59'974, 483, 70'492, 0, 12},
                    {"mcf", 825'259, 522, 60'333, 0, 3'872}});
}

TEST(AblationPin, DedicatedSliceResources)
{
    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.dedicatedSliceResources = true;
    checkPins(cfg, {{"vpr", 54'082, 560, 64'681, 196, 218},
                    {"mcf", 818'301, 820, 55'770, 0, 4'067}});
}

TEST(AblationPin, ForkConfidenceGating)
{
    sim::MachineConfig cfg = sim::MachineConfig::fourWide();
    cfg.forkConfidenceGating = true;
    checkPins(cfg, {{"vpr", 57'289, 484, 52'269, 416, 1},
                    {"mcf", 932'866, 27, 3'223, 6, 4'325}});
}
