// The wire format of the message-passing runtime.
//
// Payloads are small u64 sequences: every protocol in this repository
// exchanges IDs, hash outputs, votes or shares — all 64-bit values —
// so a schema-free word sequence keeps the runtime protocol-agnostic
// without type erasure.  Storage is `Words`: the common short payload
// lives inline in the Message, and a longer payload spills into one
// heap block (see words.hpp).
#pragma once

#include <cstdint>

#include "net/words.hpp"

namespace tg::net {

using NodeId = std::uint32_t;

struct Message {
  NodeId src = 0;
  NodeId dst = 0;
  /// Protocol-defined discriminator (e.g. relay stage, echo round).
  std::uint64_t tag = 0;
  Words payload;
  /// Round in which the message was sent (stamped by the network).
  std::uint64_t sent_round = 0;

  friend bool operator==(const Message&, const Message&) = default;
};

}  // namespace tg::net
