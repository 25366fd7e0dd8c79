#include "federation.hpp"

#include <algorithm>
#include <vector>

namespace perfbench {

using namespace evfl;

void attach_client_training(Tracer& tr, int parent,
                            const obs::RoundTelemetrySink& telemetry,
                            std::size_t before) {
  const std::vector<obs::RoundTelemetry> recs = telemetry.rounds();
  double train = 0.0;
  for (std::size_t r = before; r < recs.size(); ++r) {
    for (double t : recs[r].client_train_seconds) train += t;
  }
  tr.attach(parent, "nn.client_train", train);
}

void report_federation(Result& res, const Tracer& tr,
                       const fl::FederatedRunResult& run,
                       const obs::RoundTelemetrySink& telemetry) {
  const double run_s = tr.total_s("fl.run");
  const double train_s = tr.total_s("nn.client_train");
  res.check(telemetry.size() == run.rounds.size() && train_s > 0.0,
            "round telemetry recorded no client training");
  std::vector<double> round_s;
  std::size_t accepted = 0, rejected = 0, timed_out = 0, dropped = 0;
  for (const fl::RoundMetrics& rm : run.rounds) {
    round_s.push_back(rm.wall_seconds);
    accepted += rm.updates_received;
    rejected += rm.rejected_updates;
    timed_out += rm.timed_out_clients;
    dropped += rm.dropped_messages;
  }
  const double bytes = static_cast<double>(run.network.bytes_sent);
  res.set("fl.run_s", run_s, "s");
  res.set("fl.round_s.p50", median(round_s), "s");
  res.set("fl.round_s.max", *std::max_element(round_s.begin(), round_s.end()),
          "s");
  res.set("fl.client_train_s", train_s, "s");
  res.set("fl.orchestration_s", run_s - train_s, "s");
  res.set("fl.wire_bytes", bytes, "bytes");
  res.set("fl.wire_bytes_per_round",
          bytes / static_cast<double>(run.rounds.size()), "bytes");
  res.set("fl.messages", static_cast<double>(run.network.messages_sent),
          "count");
  res.set("fl.updates_accepted", static_cast<double>(accepted), "count");
  res.set("fl.updates_rejected", static_cast<double>(rejected), "count");
  res.set("fl.timed_out", static_cast<double>(timed_out), "count");
  res.set("fl.dropped_messages", static_cast<double>(dropped), "count");
  res.set("fl.final_loss", run.rounds.back().mean_train_loss, "mse");
  const AllocCount alloc = tr.allocs("fl.run");
  res.set("alloc.fl.run.count", static_cast<double>(alloc.count), "count");
  res.set("alloc.fl.run.bytes", static_cast<double>(alloc.bytes), "bytes");
}

}  // namespace perfbench
