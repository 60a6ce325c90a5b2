// bench_net_roundloop — the message-runtime perf trajectory
// (BENCH_net.json).
//
// Measures the chatter round loop (src/scenario/campaign.hpp's
// run_chatter_round_loop) in two traffic shapes: `inline` payloads fit
// Words' inline buffer (the repository's protocol chatter — IDs, votes,
// hash tags), `spill` payloads exceed it (wide copies with certificates
// attached), so every message also costs one heap block.  Each
// net_round_loop_<shape> row is ns per round (the fastest of 4 runs,
// see bench::fastest_across_cpus); CI's regression guard
// scores it against the run's meta.calibration_ns (the frozen
// calibration kernel in bench_common.hpp) and compares with the
// committed BENCH_net.json.
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "tinygroups/tinygroups.hpp"

namespace {

using tg::scenario::RoundLoopConfig;
using tg::scenario::RoundLoopResult;
using tg::scenario::run_chatter_round_loop;

struct Shape {
  std::string name;
  std::size_t payload_words;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace tg;
  using namespace tg::bench;
  log::set_level(log::Level::warn);

  // --fast: CI smoke length.  It shortens the run but keeps the shape
  // (nodes, fanout), so fast rows time the same per-round work as the
  // committed full-run baseline they are compared with.
  const bool fast = argc > 1 && std::string(argv[1]) == "--fast";

  banner("net round loop: inline and spilled payloads",
         "chatter rounds on the flat round engine; cost per round scales "
         "with the messages delivered");

  RoundLoopConfig base;
  base.nodes = 256;
  base.fanout = 4;
  base.rounds = fast ? 120 : 400;

  JsonReporter reporter("net");
  record_calibration(reporter);
  Table t({"shape", "payload words", "ns/round", "messages/round"});
  t.set_title("chatter round loop (" + std::to_string(base.nodes) +
              " nodes x fanout " + std::to_string(base.fanout) + ")");

  const std::vector<Shape> shapes = {
      {"inline", 4},   // fits Words::kInlineCapacity: no allocation
      {"spill", 16},   // every payload spills to one heap block
  };
  for (const Shape& shape : shapes) {
    RoundLoopConfig config = base;
    config.payload_words = shape.payload_words;

    (void)run_chatter_round_loop(config);  // warm-up: first touch
    RoundLoopResult run;
    const double ns_per_round = fastest_across_cpus(4, [&] {
      run = run_chatter_round_loop(config);
      return run.ns_per_round;
    });

    const double messages_per_round = static_cast<double>(run.delivered) /
                                      static_cast<double>(base.rounds);
    reporter.add_ns_per_op(
        "net_round_loop_" + shape.name, ns_per_round,
        {{"nodes", static_cast<double>(base.nodes)},
         {"payload_words", static_cast<double>(shape.payload_words)},
         {"messages_per_round", messages_per_round}});
    t.add_row({shape.name, shape.payload_words, ns_per_round,
               messages_per_round});
    record_calibration(reporter);
  }
  t.print(std::cout);

  return reporter.write(".") ? 0 : 1;
}
