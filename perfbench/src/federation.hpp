// Per-layer figures of a federated run, shared by the workloads that train.
#pragma once

#include <cstddef>

#include "fl/driver.hpp"
#include "harness.hpp"
#include "obs/round_telemetry.hpp"

namespace perfbench {

/// Client training runs inside Driver::run; attach the seconds the driver's
/// round telemetry recorded after record `before` as an `nn` child of span
/// `parent`.  Call it after that span has closed: reading the telemetry
/// copies it, and the copy must not count as the run's allocations.
void attach_client_training(Tracer& tr, int parent,
                            const evfl::obs::RoundTelemetrySink& telemetry,
                            std::size_t before);

/// The fl.* and alloc.fl.run.* metrics of a traced federated run.
void report_federation(Result& res, const Tracer& tr,
                       const evfl::fl::FederatedRunResult& run,
                       const evfl::obs::RoundTelemetrySink& telemetry);

}  // namespace perfbench
