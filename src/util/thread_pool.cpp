#include "util/thread_pool.hpp"

#include <algorithm>

namespace tg {

namespace {
/// True while the current thread is executing pool work; nested
/// parallel_for calls from inside a worker run inline to avoid
/// deadlocking on the single job slot.
thread_local bool tl_inside_pool_work = false;
}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_task_.notify_all();
  // Join before the members go: a worker that just left a job may still
  // be notifying cv_job_done_, and workers_ is destroyed last.
  for (auto& worker : workers_) worker.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(0);
  return pool;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    const std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(mutex_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::run_job_chunks(const std::function<void(std::size_t)>& body,
                                std::size_t count, std::size_t chunk) {
  const bool was_inside = tl_inside_pool_work;
  tl_inside_pool_work = true;
  std::size_t begin;
  while ((begin = job_next_.fetch_add(chunk, std::memory_order_relaxed)) <
         count) {
    const std::size_t end = std::min(begin + chunk, count);
    for (std::size_t i = begin; i < end; ++i) body(i);
    if (job_remaining_.fetch_sub(end - begin, std::memory_order_acq_rel) ==
        end - begin) {
      // Last items done: wake the caller (empty lock pairs the notify
      // with the caller's predicate check).
      { const std::lock_guard lock(mutex_); }
      cv_job_done_.notify_all();
    }
  }
  tl_inside_pool_work = was_inside;
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body,
                              std::size_t max_workers) {
  if (count == 0) return;
  if (tl_inside_pool_work) {
    // Nested fan-out: the job slot is (or may be) taken — run inline.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // Single job slot: a second concurrent caller runs inline instead of
  // blocking for the whole in-flight job — that keeps every caller
  // making progress (no cross-caller deadlock) exactly as the old
  // pool-per-call scheme did, at the cost of parallelism for the loser.
  std::unique_lock job_guard(job_call_mutex_, std::try_to_lock);
  if (!job_guard.owns_lock()) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  std::size_t helpers = workers_.size();
  if (max_workers != 0) helpers = std::min(helpers, max_workers - 1);
  helpers = std::min(helpers, count - 1);
  const std::size_t chunk =
      std::max<std::size_t>(1, count / ((helpers + 1) * 8));
  {
    const std::lock_guard lock(mutex_);
    job_body_ = &body;
    job_count_ = count;
    job_chunk_ = chunk;
    job_next_.store(0, std::memory_order_relaxed);
    job_remaining_.store(count, std::memory_order_relaxed);
    job_active_ = helpers > 0;
    job_workers_allowed_ = helpers;
    job_workers_joined_ = 0;
    job_participants_ = 1;  // the caller
  }
  if (helpers > 0) cv_task_.notify_all();

  run_job_chunks(body, count, chunk);

  std::unique_lock lock(mutex_);
  --job_participants_;
  cv_job_done_.wait(lock, [this] {
    return job_remaining_.load(std::memory_order_acquire) == 0 &&
           job_participants_ == 0;
  });
  job_active_ = false;
  job_body_ = nullptr;
}

void ThreadPool::worker_loop() {
  for (;;) {
    const std::function<void(std::size_t)>* job_body = nullptr;
    std::size_t job_count = 0, job_chunk = 1;
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_task_.wait(lock, [this] {
        return stop_ || !queue_.empty() ||
               (job_active_ && job_workers_joined_ < job_workers_allowed_);
      });
      if (stop_ && queue_.empty()) return;
      if (job_active_ && job_workers_joined_ < job_workers_allowed_) {
        ++job_workers_joined_;
        ++job_participants_;
        job_body = job_body_;
        job_count = job_count_;
        job_chunk = job_chunk_;
      } else if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop();
        ++active_;
      } else {
        continue;
      }
    }
    if (job_body != nullptr) {
      run_job_chunks(*job_body, job_count, job_chunk);
      {
        const std::lock_guard lock(mutex_);
        --job_participants_;
      }
      cv_job_done_.notify_all();
      continue;
    }
    tl_inside_pool_work = true;
    task();
    tl_inside_pool_work = false;
    {
      const std::lock_guard lock(mutex_);
      --active_;
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

void parallel_for_shards(std::size_t shards,
                         const std::function<void(std::size_t)>& body,
                         std::size_t threads) {
  if (shards == 0) return;
  ThreadPool::global().parallel_for(shards, body, threads);
}

}  // namespace tg
