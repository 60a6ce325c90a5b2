// Node: the actor interface of the message-passing runtime.
//
// A node owns private state and reacts to delivered messages by
// mutating that state and emitting sends through its Context.  The
// runtime guarantees a node's handlers never run concurrently with
// each other, so node state needs no locking (the actor discipline;
// CP.2 by construction).
//
// Handlers run only in rounds where the node has deliveries or asked
// for the round with Context::wake_at, so a node that keeps time must
// request its next wake: one that ticks every round calls
// `wake_at(round + 1)` from on_start and from on_round_end.
//
// Ownership: a round's deliveries belong to their destination for
// that round.  on_messages receives them as a mutable span; a node
// may move a payload out (to forward or answer with the same block)
// or overwrite it, because the network folded the batch into the
// trace hash before handlers run, no other node sees it, and it is
// discarded when the next round starts.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "net/message.hpp"

namespace tg::net {

/// A request to run `node`'s handlers in round `round`.
struct Wake {
  std::uint64_t round = 0;
  NodeId node = 0;
};

/// Handler-side view of the network: appends sends and wake requests
/// to runtime-owned buffers so the runtime can apply delivery policy
/// and parallelize without handing nodes a mutable network reference.
class Context {
 public:
  Context(NodeId self, std::uint64_t round, std::vector<Message>& sends,
          std::vector<Wake>& wakes) noexcept
      : self_(self), round_(round), sends_(&sends), wakes_(&wakes) {}

  [[nodiscard]] NodeId self() const noexcept { return self_; }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }

  void send(NodeId dst, std::uint64_t tag, Words payload = {}) {
    sends_->push_back(Message{self_, dst, tag, std::move(payload), round_});
  }

  /// Run this node's handlers in round `round` even if nothing is
  /// delivered to it then.  `round` must be strictly later than the
  /// current round (on_start runs in round 0, so round 1 is the first
  /// valid request there); repeated requests for one round coalesce.
  void wake_at(std::uint64_t round) {
    if (round <= round_) {
      throw std::invalid_argument("Context::wake_at: round not in the future");
    }
    wakes_->push_back(Wake{round, self_});
  }

 private:
  NodeId self_;
  std::uint64_t round_;
  std::vector<Message>* sends_;
  std::vector<Wake>* wakes_;
};

class Node {
 public:
  virtual ~Node() = default;

  /// Called once before the first round.
  virtual void on_start(Context& ctx) { (void)ctx; }

  /// Called for each delivered message.
  virtual void on_message(const Message& m, Context& ctx) = 0;

  /// Called once per active round with the node's whole delivery
  /// batch, in arrival order (empty when only a wake made the node
  /// active).  The batch is the node's to consume (see above): the
  /// workload's group nodes rewrite each request in place and move it
  /// into ctx.send.  The default hands each message to on_message.
  virtual void on_messages(std::span<Message> batch, Context& ctx) {
    for (const Message& m : batch) on_message(m, ctx);
  }

  /// Called at the end of every active round, after on_messages
  /// (timers, retransmits).  Rounds in which the node has neither
  /// deliveries nor a wake request skip it.
  virtual void on_round_end(Context& ctx) { (void)ctx; }
};

}  // namespace tg::net
