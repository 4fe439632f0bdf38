#include "exec/thread_pool.hpp"

#include <atomic>
#include <cstdlib>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace splitlock::exec {

namespace {

// Pool observability. tasks_run is count-class: every submitted task runs
// exactly once and task counts come from exec::NumChunks / explicit
// Submit sites, which are pure of the worker count. Steals and the
// queue-depth high-water are facts about the interleaving (sched-class);
// busy/idle are wall clocks. Per-worker attribution deliberately comes
// from trace spans (track per worker), not per-worker metric names —
// SetDefaultThreadCount would re-register those on every pool rebuild.
struct PoolMetrics {
  obs::Counter* tasks_run;
  obs::Counter* steals;
  obs::Gauge* queue_depth_hwm;
  obs::TimeMetric* busy_s;
  obs::TimeMetric* idle_s;
};

PoolMetrics& Metrics() {
  static PoolMetrics m = [] {
    obs::Registry& r = obs::Registry::Instance();
    return PoolMetrics{
        r.RegisterCounter("exec.pool.tasks_run"),
        r.RegisterCounter("exec.pool.steals", obs::MetricClass::kSched),
        r.RegisterGauge("exec.pool.queue_depth_hwm"),
        r.RegisterTime("exec.pool.busy_s"),
        r.RegisterTime("exec.pool.idle_s"),
    };
  }();
  return m;
}

// Tasks running on this thread: a task that waits on a TaskGroup runs
// other tasks nested inside it through TryRunOneTask.
thread_local size_t t_task_depth = 0;

struct TaskDepthScope {
  TaskDepthScope() { ++t_task_depth; }
  ~TaskDepthScope() { --t_task_depth; }
};

void RunInstrumented(std::function<void()>& task) {
  PoolMetrics& m = Metrics();
  const Stopwatch timer;
  {
    const TaskDepthScope depth;
    obs::Span span("exec.task");
    task();
  }
  // tasks_run is counted at Submit time, not here: TaskGroup's pending
  // counter decrements inside the task body, so a waiter can observe the
  // group as done — and snapshot the registry — microseconds before this
  // epilogue runs. Submit-side counting is synchronous with the caller.
  // Only the outermost task adds its time: a nested task's time is already
  // inside it.
  if (t_task_depth == 0) m.busy_s->AddSeconds(timer.Seconds());
}

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = DefaultThreadCount();
  if (threads == 0) threads = 1;
  queues_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    stop_.store(true, std::memory_order_relaxed);
  }
  sleep_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Every submitted task runs exactly once, so counting here keeps
  // tasks_run count-class: submission sites (exec::NumChunks fan-outs,
  // explicit Submits) are pure of the worker count, and the increment is
  // synchronous with the submitting thread — a snapshot taken after a
  // parallel region returns always includes the region's full task count.
  Metrics().tasks_run->Add(1);
  const size_t q =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(queues_[q]->mutex);
    queues_[q]->tasks.push_back(std::move(task));
    depth = queues_[q]->tasks.size();
  }
  Metrics().queue_depth_hwm->Set(depth);
  sleep_cv_.notify_one();
}

bool ThreadPool::PopOrSteal(size_t worker_index, std::function<void()>& task) {
  // Own deque first, newest task (LIFO).
  {
    WorkerQueue& own = *queues_[worker_index];
    std::lock_guard<std::mutex> lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
      return true;
    }
  }
  // Steal the oldest task (FIFO) from the first non-empty sibling.
  for (size_t k = 1; k < queues_.size(); ++k) {
    WorkerQueue& victim = *queues_[(worker_index + k) % queues_.size()];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      Metrics().steals->Add(1);
      return true;
    }
  }
  return false;
}

bool ThreadPool::TryRunOneTask() {
  // External threads have no own deque; steal round-robin from slot 0.
  std::function<void()> task;
  if (!PopOrSteal(0, task)) return false;
  RunInstrumented(task);
  return true;
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  obs::Tracer::Instance().RegisterCurrentThread(
      "exec.worker." + std::to_string(worker_index));
  std::function<void()> task;
  for (;;) {
    if (PopOrSteal(worker_index, task)) {
      RunInstrumented(task);
      task = nullptr;
      continue;
    }
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    if (stop_.load(std::memory_order_relaxed)) return;
    // Re-check under the sleep lock: a Submit between our scan and here
    // would have notified before we started waiting.
    bool any = false;
    for (const auto& q : queues_) {
      std::lock_guard<std::mutex> qlock(q->mutex);
      if (!q->tasks.empty()) {
        any = true;
        break;
      }
    }
    if (any) continue;
    const Stopwatch idle;
    // lint:allow(wall-clock) bounded sleep between wakeups, not a measurement
    sleep_cv_.wait_for(lock, std::chrono::milliseconds(50));
    Metrics().idle_s->AddSeconds(idle.Seconds());
    if (stop_.load(std::memory_order_relaxed)) return;
  }
}

namespace {

std::mutex g_default_pool_mutex;
std::unique_ptr<ThreadPool> g_default_pool;  // guarded by g_default_pool_mutex

}  // namespace

ThreadPool& ThreadPool::Default() {
  std::lock_guard<std::mutex> lock(g_default_pool_mutex);
  if (!g_default_pool) {
    g_default_pool = std::make_unique<ThreadPool>(DefaultThreadCount());
  }
  return *g_default_pool;
}

size_t ThreadPool::DefaultThreadCount() {
  if (const char* env = std::getenv("SPLITLOCK_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

void ThreadPool::SetDefaultThreadCount(size_t threads) {
  std::unique_ptr<ThreadPool> fresh =
      std::make_unique<ThreadPool>(threads == 0 ? DefaultThreadCount()
                                                : threads);
  std::lock_guard<std::mutex> lock(g_default_pool_mutex);
  g_default_pool = std::move(fresh);
}

}  // namespace splitlock::exec
