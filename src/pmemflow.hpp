// Umbrella header: the pmemflow public API.
//
// Downstream users can include this single header; fine-grained headers
// remain available for faster builds.
//
//   #include "pmemflow.hpp"
//
//   pmemflow::core::Executor executor;
//   auto spec = pmemflow::workloads::make_workflow(
//       pmemflow::workloads::Family::kGtcReadOnly, 16);
//   auto sweep = executor.sweep(spec);
#pragma once

// Foundation
#include "common/csv.hpp"
#include "common/flags.hpp"
#include "common/expected.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

// Simulation engine
#include "sim/engine.hpp"
#include "sim/flow.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

// Platform + device models
#include "devices/device_spec.hpp"
#include "devices/memory_device.hpp"
#include "devices/registry.hpp"
#include "interconnect/upi.hpp"
#include "pmemsim/allocator.hpp"
#include "pmemsim/bandwidth.hpp"
#include "pmemsim/params.hpp"
#include "pmemsim/space.hpp"
#include "topo/platform.hpp"

// Storage stacks
#include "stack/channel.hpp"
#include "stack/nova_channel.hpp"
#include "stack/novafs.hpp"
#include "stack/nvstream.hpp"
#include "stack/payload.hpp"

// Workflows + workloads
#include "workflow/model.hpp"
#include "workflow/runner.hpp"
#include "workloads/analytics.hpp"
#include "workloads/gtc.hpp"
#include "workloads/microbench.hpp"
#include "workloads/miniamr.hpp"
#include "workloads/suite.hpp"

// Scheduler (the paper's contribution)
#include "core/autotuner.hpp"
#include "core/batch.hpp"
#include "core/characterizer.hpp"
#include "core/config.hpp"
#include "core/executor.hpp"
#include "core/recommender.hpp"

// Online scheduling service (§X future work, online form)
#include "service/arrivals.hpp"
#include "service/fleet.hpp"
#include "service/metrics.hpp"
#include "service/profile_cache.hpp"
#include "service/scheduler.hpp"
#include "service/submission_queue.hpp"
#include "service/types.hpp"

// Reporting + tracing
#include "metrics/report.hpp"
#include "metrics/summary.hpp"
#include "trace/tracer.hpp"
