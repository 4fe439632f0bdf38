#include "exec/thread_pool.hpp"

#include <cstdlib>
#include <memory>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace splitlock::exec {

namespace {

// Pool observability. tasks_run is count-class: every submitted task runs
// exactly once and task counts come from exec::NumChunks / explicit
// Submit sites, which are pure of the worker count. The queue-depth
// high-water is a fact about the interleaving (sched-class); busy/idle are
// wall clocks. Per-worker attribution deliberately comes from trace spans
// (track per worker), not per-worker metric names — SetDefaultThreadCount
// would re-register those on every pool rebuild.
struct PoolMetrics {
  obs::Counter* tasks_run;
  obs::Gauge* queue_depth_hwm;
  obs::TimeMetric* busy_s;
  obs::TimeMetric* idle_s;
};

PoolMetrics& Metrics() {
  static PoolMetrics m = [] {
    obs::Registry& r = obs::Registry::Instance();
    return PoolMetrics{
        r.RegisterCounter("exec.pool.tasks_run"),
        r.RegisterGauge("exec.pool.queue_depth_hwm"),
        r.RegisterTime("exec.pool.busy_s"),
        r.RegisterTime("exec.pool.idle_s"),
    };
  }();
  return m;
}

// busy_s is the time workers spend in tasks. No task runs inside another,
// so each second counts once and busy_s never exceeds workers x wall; the
// chunks that a region's caller runs count only if the caller is a worker.
void RunInstrumented(std::function<void()>& task) {
  const Stopwatch timer;
  {
    obs::Span span("exec.task");
    task();
  }
  Metrics().busy_s->AddSeconds(timer.Seconds());
}

}  // namespace

ThreadPool::ThreadPool(size_t threads) {
  if (threads == 0) threads = DefaultThreadCount();
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  // Every submitted task runs exactly once, so counting here keeps
  // tasks_run count-class: submission sites (exec::NumChunks fan-outs,
  // explicit Submits) are pure of the worker count, and the increment is
  // synchronous with the submitting thread — a snapshot taken after a
  // parallel region returns always includes the region's full task count.
  Metrics().tasks_run->Add(1);
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(task));
    depth = tasks_.size();
  }
  Metrics().queue_depth_hwm->Set(depth);
  wake_.notify_one();
}

void ThreadPool::WorkerLoop(size_t worker_index) {
  obs::Tracer::Instance().RegisterCurrentThread(
      "exec.worker." + std::to_string(worker_index));
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (tasks_.empty() && !stop_) {
        const Stopwatch idle;
        wake_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
        Metrics().idle_s->AddSeconds(idle.Seconds());
      }
      // On stop, the queue is drained before the worker leaves.
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    RunInstrumented(task);
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
