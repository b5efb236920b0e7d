#include "alrescha/report.hh"

#include "alrescha/sim/profile.hh"
#include "alrescha/sim/replay.hh"
#include "common/json.hh"
#include "common/version.hh"

namespace alr {

void
writeUtilizationJson(json::Writer &w, const UtilizationReport &u)
{
    w.beginObject().key("cycles").value(u.cycles);
    w.key("alu_occupancy").value(u.aluOccupancy);
    w.key("tree_occupancy").value(u.treeOccupancy);
    w.key("bandwidth_utilization").value(u.bandwidthUtilization);
    w.key("cache_hit_rate").value(u.cacheHitRate);
    w.key("cache_time_fraction").value(u.cacheTimeFraction);
    w.key("sequential_op_fraction").value(u.sequentialOpFraction);
    w.key("sequential_cycle_fraction").value(u.sequentialCycleFraction);
    w.key("reconfig_hidden_frac").value(u.reconfigHiddenFraction);
    w.key("flops").number(u.flops);
    w.key("dram_bytes").number(u.dramBytes);
    w.key("arithmetic_intensity").value(u.arithmeticIntensity);
    w.key("achieved_gflops").value(u.achievedGflops);
    w.key("peak_gflops").value(u.peakGflops);
    w.key("attainable_gflops").value(u.attainableGflops);
    w.endObject();
}

void
writeSimReportJson(std::ostream &os, const Accelerator &acc,
                   const SimReportOptions &opt)
{
    AccelReport r = acc.report();
    json::Writer w(os);
    w.beginObject().key("schema_version").value(version::kJsonSchemaVersion);
    w.key("kernel").value(opt.kernel).key("omega").value(opt.omega);
    w.key("cycles").value(r.cycles).key("seconds").value(r.seconds);
    w.key("dram_bytes").number(r.bytesFromMemory);
    w.key("bandwidth_utilization").value(r.bandwidthUtilization);
    w.key("sequential_op_fraction").value(r.sequentialOpFraction);
    w.key("reconfigurations").number(r.reconfigurations);
    w.key("energy_joules").value(r.energyJoules);
    w.key("energy_breakdown").beginObject(true);
    w.key("dram").value(r.energy.dram).key("sram").value(r.energy.sram);
    w.key("compute").value(r.energy.compute);
    w.key("reconfig").value(r.energy.reconfig);
    w.key("static").value(r.energy.staticEnergy).endObject();
    const char *simdRuntime = replay::selectedName(opt.simdMode);
    w.key("version");
    replay::writeVersionJson(w, simdRuntime);
    if (profile::enabled()) {
        w.key("profile");
        profile::exportJson(w, {opt.kernel, opt.omega,
                                acc.engine().totalCycles(), simdRuntime});
    }
    if (opt.utilization) {
        w.key("utilization");
        writeUtilizationJson(w, acc.utilization());
    }
    if (opt.stats) {
        w.key("stats");
        acc.engine().statGroup().dumpJson(w);
    }
    if (opt.snapshots) {
        w.key("snapshots");
        opt.snapshots->dumpJson(w);
    }
    w.endObject();
    os << '\n';
}

} // namespace alr
