// Free-list recycling pool for in-flight packets.
//
// The event hot path hands a packet to the scheduler twice per hop
// (transmission completion, then propagation); capturing the ~300-byte
// Packet by value in those callbacks would overflow the scheduler's inline
// callback buffer and put a heap allocation back on every event. Instead
// the link checks packets out of a pool and captures a PooledPacket — a
// unique_ptr whose 32 bytes fit the inline buffer with room for `this`.
//
// Slots are indexed: the free list holds 32-bit slot indices, and a
// PooledPacket's deleter carries its slot's index back to the list.
//
// Ownership: the pool is held by shared_ptr. Each PooledPacket's deleter
// keeps a reference, so a callback that is destroyed without running (a
// scheduler torn down with pending deliveries after its network is gone —
// the teardown order of Scenario) still releases into live pool memory.
// The pool owns every Packet it ever allocated; packets released after the
// last external reference drops simply die with the pool.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace tcppr::net {

class PacketPool;

// Deleter that returns the packet's slot to its pool instead of freeing it.
struct PacketReturner {
  std::shared_ptr<PacketPool> pool;
  std::uint32_t index = 0;
  void operator()(Packet* pkt) const;
};

using PooledPacket = std::unique_ptr<Packet, PacketReturner>;

class PacketPool : public std::enable_shared_from_this<PacketPool> {
 public:
  static std::shared_ptr<PacketPool> create() {
    return std::make_shared<PacketPool>();
  }

  // Checks a packet out of the free list (allocating only when the pool is
  // empty) and moves src into it. InlineVec fields keep any heap capacity
  // the recycled packet had, so a warm pool allocates nothing.
  PooledPacket make(Packet&& src) {
    const std::uint32_t index = acquire();
    Packet* pkt = storage_[index].get();
    *pkt = std::move(src);
    return PooledPacket{pkt, PacketReturner{shared_from_this(), index}};
  }

  // Checks a slot out without touching its contents: the recycled packet's
  // stale fields are still there, so the caller must overwrite the slot
  // wholesale (e.g. Queue::dequeue_into) before the packet is read.
  PooledPacket checkout() {
    const std::uint32_t index = acquire();
    return PooledPacket{storage_[index].get(),
                        PacketReturner{shared_from_this(), index}};
  }

  void release(std::uint32_t index) { free_.push_back(index); }

  std::size_t allocated() const { return storage_.size(); }
  std::size_t idle() const { return free_.size(); }

 private:
  std::uint32_t acquire() {
    if (free_.empty()) {
      storage_.push_back(std::make_unique<Packet>());
      return static_cast<std::uint32_t>(storage_.size() - 1);
    }
    const std::uint32_t index = free_.back();
    free_.pop_back();
    return index;
  }

  std::vector<std::unique_ptr<Packet>> storage_;
  std::vector<std::uint32_t> free_;  // slot indices, LIFO
};

inline void PacketReturner::operator()(Packet*) const { pool->release(index); }

}  // namespace tcppr::net
