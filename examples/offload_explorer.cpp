/**
 * @file
 * Offload explorer: how the computation-communication balance moves.
 *
 * The paper's thesis is that where a pipeline should be cut depends on
 * the link and the power budget. This example sweeps both knobs:
 *
 *  1. VR rig: uplink bandwidth from 5 to 400 Gb/s — watch the optimal
 *     cut move from "everything in camera" to "stream raw sensor data"
 *     (Section IV-C's observation).
 *  2. FA camera: reader distance (harvested power) and radio cost —
 *     watch local processing beat offload by orders of magnitude at
 *     every realistic operating point.
 *
 * Run: ./build/examples/offload_explorer
 */

#include <cstdio>

#include "core/optimizer.hh"
#include "hw/rf_harvest.hh"
#include "hw/sensor.hh"
#include "vr/pipeline_model.hh"

using namespace incam;

namespace {

void
exploreVr()
{
    std::printf("-- VR rig: optimal design vs uplink bandwidth --\n");
    std::printf("%-10s %-14s %-44s\n", "uplink", "raw FPS",
                "cheapest real-time configuration");
    for (double gbps : {5.0, 15.0, 25.0, 48.0, 100.0, 400.0}) {
        VrPipelineModel model(defaultVrGeometry(),
                              Bandwidth::gigabitsPerSec(gbps));
        std::string best = "(none achieves 30 FPS)";
        for (const auto &row : model.figure10()) {
            if (row.realtime) {
                best = row.name;
                break; // rows ordered by in-camera depth
            }
        }
        std::printf("%-10s %-14.1f %-44s\n",
                    (std::to_string(static_cast<int>(gbps)) + " Gb/s")
                        .c_str(),
                    model.commFps(VrBlock::Sensor), best.c_str());
    }
    std::printf("below ~48 Gb/s the camera must compute; above it, raw "
                "streaming wins.\n\n");
}

void
exploreFa()
{
    std::printf("-- FA camera: local processing vs offload, by reader "
                "distance --\n");

    // Representative measured costs (bench_paper's §III rows run the
    // full simulation): filtered pipeline ~1.1 uJ/frame in camera.
    const Energy local_per_frame = Energy::microjoules(1.13);
    const SensorModel sensor;
    const NetworkLink radio = backscatterUplink();
    const Energy offload_per_frame =
        sensor.captureEnergy(160, 120) +
        radio.transferEnergy(sensor.frameBytes(160, 120));

    const RfHarvesterConfig rf;
    std::printf("%-10s %-12s %-18s %-18s\n", "distance", "harvested",
                "local FPS", "offload FPS");
    for (double d : {1.0, 2.0, 3.0, 5.0, 8.0}) {
        const Power budget = harvestedPower(rf, d);
        std::printf("%-10s %-12s %-18.2f %-18.3f\n",
                    (std::to_string(d).substr(0, 3) + " m").c_str(),
                    budget.toString().c_str(),
                    budget.w() / local_per_frame.j(),
                    budget.w() / offload_per_frame.j());
    }
    std::printf("local processing sustains continuous operation ~%.0fx "
                "further up the energy budget than offloading frames.\n",
                offload_per_frame.j() / local_per_frame.j());
}

} // namespace

int
main()
{
    std::printf("== offload explorer: two cameras, two currencies ==\n\n");
    exploreVr();
    exploreFa();
    std::printf("\nsame framework, opposite answers: the VR rig is "
                "bandwidth-starved (compute in camera), while the FA\n"
                "camera is energy-starved (filter early, never ship "
                "pixels). That is the paper's tradeoff space.\n");
    return 0;
}
