/**
 * @file
 * DeviceNode: one accelerator inside the system simulation.
 *
 * A device-node couples a DeviceConfig, its ComputeModel, and bookkeeping
 * for local memory capacity. Its serial compute engine is driven by the
 * TrainingSession (system library); this class tracks occupancy so an
 * iteration can report per-device compute-busy statistics.
 */

#ifndef MCDLA_DEVICE_DEVICE_NODE_HH
#define MCDLA_DEVICE_DEVICE_NODE_HH

#include <algorithm>
#include <cstdint>

#include "device/compute_model.hh"
#include "device/device_config.hh"
#include "sim/sim_object.hh"

namespace mcdla
{

/** One accelerator device (GPU/TPU class) in the simulated node. */
class DeviceNode : public SimObject
{
  public:
    /**
     * @param eq Driving event queue.
     * @param name Instance name (e.g. "sys.dev3").
     * @param cfg Device configuration.
     */
    DeviceNode(EventQueue &eq, std::string name, const DeviceConfig &cfg)
        : SimObject(eq, std::move(name)), _cfg(cfg), _model(cfg),
          _busyUntil(0),
          _statBusyTicks(stats().scalar(
              "compute_busy_ticks",
              "total ticks the compute engine was busy")),
          _statOps(stats().scalar("ops_executed",
                                  "layer passes executed"))
    {}

    const DeviceConfig &config() const { return _cfg; }
    const ComputeModel &computeModel() const { return _model; }

    /** Local memory capacity in bytes. */
    std::uint64_t memCapacity() const { return _cfg.memCapacity; }

    /**
     * Reserve the serial compute engine for @p duration starting no
     * earlier than @p earliest, returning the completion tick. The engine
     * executes strictly in call order (one CUDA-stream semantics).
     */
    Tick
    occupyCompute(Tick earliest, Tick duration)
    {
        const Tick start = std::max(earliest, _busyUntil);
        _busyUntil = start + duration;
        _statBusyTicks += static_cast<double>(duration);
        ++_statOps;
        return _busyUntil;
    }

    /** Next tick at which the compute engine is free. */
    Tick computeFreeAt() const { return _busyUntil; }

    /** Clear occupancy between iterations. */
    void
    resetOccupancy()
    {
        _busyUntil = 0;
    }

  private:
    DeviceConfig _cfg;
    ComputeModel _model;
    Tick _busyUntil;
    /** Resolved once: occupyCompute() runs on every op. */
    Scalar &_statBusyTicks;
    Scalar &_statOps;
};

} // namespace mcdla

#endif // MCDLA_DEVICE_DEVICE_NODE_HH
