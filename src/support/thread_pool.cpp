#include "support/thread_pool.hpp"

#include <algorithm>
#include <array>
#include <exception>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "support/contracts.hpp"

namespace syncon {

namespace {

// Time a submitted task spent queued before a worker picked it up. Called
// only when obs::enabled() was set at submit time.
void record_task_wait(std::uint64_t wait_us) {
  auto& registry = obs::MetricRegistry::global();
  static obs::Counter& tasks = registry.counter("syncon_pool_tasks_total");
  static obs::Histogram& wait = registry.histogram(
      "syncon_pool_task_wait_us",
      obs::HistogramSpec::exponential(1.0, 65536.0));
  const std::size_t shard = obs::current_thread_slot();
  tasks.add(1, shard);
  wait.record(static_cast<double>(wait_us), shard);
}

}  // namespace

ThreadPool::ThreadPool(std::size_t thread_count) {
  if (thread_count == 0) {
    thread_count = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  SYNCON_REQUIRE(task != nullptr, "submit needs a task");
  if (obs::enabled()) {
    // Wrap to measure queue wait; the extra allocation happens only with
    // telemetry on.
    const std::uint64_t enqueued = obs::now_us();
    task = [enqueued, inner = std::move(task)] {
      record_task_wait(obs::now_us() - enqueued);
      inner();
    };
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    SYNCON_REQUIRE(!stopping_, "submit on a stopping pool");
    queue_.push_back(std::move(task));
  }
  wake_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      wake_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_.notify_all();
    }
  }
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

std::size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size() + active_;
}

void ThreadPool::parallel_for(
    std::size_t count,
    const std::function<void(std::size_t shard, std::size_t begin,
                             std::size_t end)>& body,
    std::size_t shards) {
  SYNCON_REQUIRE(body != nullptr, "parallel_for needs a body");
  if (shards == 0) shards = thread_count();
  shards = std::max<std::size_t>(1, std::min(shards, std::max<std::size_t>(count, 1)));

  // Per-call join state; shared_ptr so stray workers finishing after an
  // exception rethrow can never touch a dead frame.
  constexpr std::size_t kInlineShards = 64;
  struct Join {
    std::mutex mutex;
    std::condition_variable done;
    std::size_t remaining;
    std::exception_ptr error;
    // Shard timings (telemetry on): inline up to kInlineShards, so timing
    // adds no allocation to the join's own.
    std::array<std::uint64_t, kInlineShards> inline_durations{};
    std::vector<std::uint64_t> spilled_durations;
  };
  auto join = std::make_shared<Join>();
  join->remaining = shards - 1;

  // With telemetry on, time each shard so the join can report imbalance.
  // Distinct indices: no synchronization needed beyond the join itself.
  std::uint64_t* durations = nullptr;
  if (obs::enabled()) {
    if (shards <= kInlineShards) {
      durations = join->inline_durations.data();
    } else {
      join->spilled_durations.assign(shards, 0);
      durations = join->spilled_durations.data();
    }
  }

  auto run_shard = [count, shards, &body, durations](std::size_t shard) {
    const std::size_t begin = shard * count / shards;
    const std::size_t end = (shard + 1) * count / shards;
    if (durations != nullptr) {
      const std::uint64_t t0 = obs::now_us();
      body(shard, begin, end);
      durations[shard] = obs::now_us() - t0;
    } else {
      body(shard, begin, end);
    }
  };

  for (std::size_t s = 1; s < shards; ++s) {
    submit([join, run_shard, s] {
      try {
        run_shard(s);
      } catch (...) {
        std::lock_guard<std::mutex> lock(join->mutex);
        if (!join->error) join->error = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(join->mutex);
      if (--join->remaining == 0) join->done.notify_all();
    });
  }

  // The caller works too: shard 0 runs here.
  try {
    run_shard(0);
  } catch (...) {
    std::lock_guard<std::mutex> lock(join->mutex);
    if (!join->error) join->error = std::current_exception();
  }

  std::unique_lock<std::mutex> lock(join->mutex);
  join->done.wait(lock, [&] { return join->remaining == 0; });
  if (join->error) std::rethrow_exception(join->error);

  if (durations != nullptr) {
    // Recorded at the join, in shard order, on the caller's thread:
    // deterministic sample order regardless of worker scheduling.
    auto& registry = obs::MetricRegistry::global();
    static obs::Counter& calls =
        registry.counter("syncon_pool_parallel_for_total");
    static obs::Histogram& shard_us = registry.histogram(
        "syncon_pool_shard_us",
        obs::HistogramSpec::exponential(1.0, 65536.0));
    static obs::Histogram& imbalance = registry.histogram(
        "syncon_pool_shard_imbalance_us",
        obs::HistogramSpec::exponential(1.0, 65536.0));
    calls.add(1);
    const std::span<const std::uint64_t> timed(durations, shards);
    const auto [lo, hi] = std::minmax_element(timed.begin(), timed.end());
    for (const std::uint64_t d : timed) {
      shard_us.record(static_cast<double>(d));
    }
    imbalance.record(static_cast<double>(*hi - *lo));
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

}  // namespace syncon
