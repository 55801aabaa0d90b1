// Fixed pool of worker threads executing per-tick fan-out work.
//
// The scheduler calls Run(n, fn) once per tick; workers claim indices
// 0..n-1 via an atomic counter and Run returns only after every index has
// been processed and every worker that joined the run has left its claim
// loop (a full barrier — required because the scheduler samples from the
// logits the workers just produced). A worker joins a run by reading a
// non-null fn_ under mu_; one that is signalled for a run but reacquires
// mu_ only after Run has returned finds fn_ null and sits that run out, so
// it can never claim the next run's indices under a stale fn. With zero
// threads Run executes inline on the caller, which is the right
// configuration on a single-core host: the batched decode step already
// extracts the throughput win within one thread, and an extra hop through
// a worker thread would only add context switches.
#ifndef TFMR_SERVE_WORKER_POOL_H_
#define TFMR_SERVE_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace llm::serve {

class WorkerPool {
 public:
  /// Spawns `num_threads` workers; 0 means run everything inline.
  explicit WorkerPool(int num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Number of execution lanes (>= 1); fn's second argument is in
  /// [0, lanes) and identifies which lane runs the item, letting callers
  /// hand each lane its own scratch buffers.
  int lanes() const { return lanes_; }

  /// Executes fn(i, lane) for every i in [0, n); returns when every index
  /// is done and no worker is still inside this run's claim loop. Must be
  /// called from one thread at a time (the scheduler).
  void Run(int64_t n, const std::function<void(int64_t, int)>& fn);

  /// Points in a worker's wake-up at which the test hook is called.
  enum class WakePoint {
    kWoken,     // signalled for a new run; mu_ released. May block.
    kRelocked,  // mu_ reacquired after kWoken, run not yet read. Must not
                // block or call into the pool.
    kClaiming,  // joined a run; mu_ released, about to claim. May block.
  };
  /// Test-only: calls hook(lane, point) at each WakePoint, so a test can
  /// force the interleavings the completion protocol must survive. Install
  /// before the first Run; unset, it costs one branch per wake-up.
  void SetWakeHookForTesting(std::function<void(int, WakePoint)> hook);

 private:
  void WorkerMain(int lane);

  const int lanes_;
  std::vector<std::thread> threads_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int64_t, int)>* fn_ = nullptr;  // guarded by mu_
  int64_t n_ = 0;                                          // guarded by mu_
  int64_t busy_ = 0;  // workers inside the claim loop, guarded by mu_
  uint64_t epoch_ = 0;                                     // guarded by mu_
  bool stop_ = false;                                      // guarded by mu_
  std::atomic<int64_t> next_{0};
  std::function<void(int, WakePoint)> wake_hook_;  // fixed before first Run
};

}  // namespace llm::serve

#endif  // TFMR_SERVE_WORKER_POOL_H_
