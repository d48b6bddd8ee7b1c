#include "calibrate.h"

#include <sys/mman.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

namespace orderless::bench {

namespace {

constexpr std::size_t kChainSlots = std::size_t{8} << 20;  // 32 MiB
constexpr int kChaseSteps = 60'000;
constexpr int kMapOps = 20'000;
constexpr int kMixRounds = 1'250'000;

std::uint64_t NextLcg(std::uint64_t& state) {
  state = state * 6364136223846793005ULL + 1442695040888963407ULL;
  return state >> 33;
}

/// One random cycle through every slot (Sattolo's shuffle, fixed seed), so
/// that chasing it misses the caches at every step. Mapped outside the heap
/// and marked MADV_DONTFORK, so forked repetitions do not inherit it.
class Chain {
 public:
  Chain() {
    void* mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) std::abort();
    madvise(mem, kBytes, MADV_DONTFORK);
    next_ = static_cast<std::uint32_t*>(mem);
    for (std::size_t i = 0; i < kChainSlots; ++i) {
      next_[i] = static_cast<std::uint32_t>(i);
    }
    std::uint64_t state = 1;
    for (std::size_t i = kChainSlots - 1; i > 0; --i) {
      std::swap(next_[i], next_[NextLcg(state) % i]);
    }
  }
  ~Chain() { munmap(next_, kBytes); }
  Chain(const Chain&) = delete;
  Chain& operator=(const Chain&) = delete;

  const std::uint32_t* next() const { return next_; }

 private:
  static constexpr std::size_t kBytes = kChainSlots * sizeof(std::uint32_t);
  std::uint32_t* next_ = nullptr;
};

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// One pass of the kernel on the calling thread, starting the chase at
/// `start` so that threads running at once do not share cache lines.
/// Returns the thread's CPU seconds.
double Kernel(const std::uint32_t* next, std::uint32_t start) {
  const double cpu_start = ThreadCpuSeconds();

  std::uint32_t at = start;
  for (int i = 0; i < kChaseSteps; ++i) at = next[at];

  std::unordered_map<std::uint64_t, std::string> map;
  std::uint64_t state = at;
  for (int i = 0; i < kMapOps; ++i) {
    const std::uint64_t r = NextLcg(state);
    map[r % 20000] = std::string(40 + r % 16, 'x');
    if (i % 3 == 0) map.erase((r >> 7) % 20000);
  }

  std::uint64_t x = map.size();
  for (int i = 0; i < kMixRounds; ++i) {
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 29;
    x += static_cast<std::uint64_t>(i);
  }
  // Keeps the loops: the result decides whether the time is reported.
  const double cpu_s = ThreadCpuSeconds() - cpu_start;
  return x == 0 ? -cpu_s : cpu_s;
}

}  // namespace

CalibrationPass Calibrate(unsigned threads) {
  static const Chain chain;
  threads = std::max(threads, 1u);
  std::vector<double> cpu_s(threads);
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> workers;
    for (unsigned t = 1; t < threads; ++t) {
      workers.emplace_back([&cpu_s, t, threads] {
        cpu_s[t] = Kernel(chain.next(), static_cast<std::uint32_t>(
                                            kChainSlots / threads * t));
      });
    }
    cpu_s[0] = Kernel(chain.next(), 0);
  }
  CalibrationPass pass;
  pass.wall_s = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  for (const double s : cpu_s) pass.cpu_s += std::abs(s) / threads;
  return pass;
}

}  // namespace orderless::bench
