#include "host_probe.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

// The heap and table take a few MB, more than a core's L2, so the probe
// feels contention for the shared cache and memory as the simulator does.
constexpr std::uint32_t kPending = 65536;  // events in the heap
constexpr std::uint32_t kKeys = 262144;    // key space of the table
constexpr int kSteps = 20000;              // events processed per probe

// Keeps the optimiser from discarding the probe's work.
std::atomic<std::uint64_t> g_sink{0};

void run_probe() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;  // (time, key)
  std::vector<Event> heap;
  heap.reserve(kPending);
  std::unordered_map<std::uint32_t, std::uint64_t> table;
  table.reserve(kKeys);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;  // xorshift64, fixed seed
  const auto rnd = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint32_t i = 0; i < kPending; ++i) {
    heap.emplace_back(rnd() % 100000, i);
    table[i] = i;
  }
  std::make_heap(heap.begin(), heap.end(), std::greater<>());
  std::uint64_t h = 0;
  for (int k = 0; k < kSteps; ++k) {
    std::pop_heap(heap.begin(), heap.end(), std::greater<>());
    const Event ev = heap.back();
    heap.pop_back();
    if (const auto it = table.find(ev.second); it != table.end()) {
      h += it->second;
      table.erase(it);
    }
    const auto key = static_cast<std::uint32_t>(rnd() % kKeys);
    table[key] = ev.first ^ h;
    heap.emplace_back(ev.first + rnd() % 1000, key);
    std::push_heap(heap.begin(), heap.end(), std::greater<>());
  }
  g_sink.fetch_add(h + table.size(), std::memory_order_relaxed);
}

}  // namespace

double probe_ms(int threads) {
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> helpers;
  for (int i = 1; i < threads; ++i) helpers.emplace_back(run_probe);
  run_probe();
  for (std::thread& t : helpers) t.join();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace perfbench
