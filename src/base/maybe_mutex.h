// Mutexes that engage only in ExecMode::kThreads.
//
// Shared structures (flush-queue shards, the IOTLB, page tables, the mapping
// index, allocator free lists) need real locks when worker threads contend on
// them, but the deterministic sequential mode — where every test and every
// committed baseline runs — is single-threaded by construction and must not
// pay for or depend on locking. A MaybeMutex is disengaged (a branch, no
// atomic) until Engage() is called at machine bring-up in kThreads mode.
// Engage() must happen before any concurrent use; it is never legal to
// engage or disengage while other threads are running.

#ifndef SPV_BASE_MAYBE_MUTEX_H_
#define SPV_BASE_MAYBE_MUTEX_H_

#include <mutex>
#include <shared_mutex>

namespace spv {

// `Mutex` is std::mutex for a layer's lock and std::recursive_mutex where the
// holder re-enters: the telemetry Hub's dispatch lock, because sinks publish
// from inside OnEvent.
template <typename Mutex>
class BasicMaybeMutex {
 public:
  void Engage() { engaged_ = true; }
  bool engaged() const { return engaged_; }

  void lock() {
    if (engaged_) {
      mu_.lock();
    }
  }
  void unlock() {
    if (engaged_) {
      mu_.unlock();
    }
  }
  bool try_lock() { return engaged_ ? mu_.try_lock() : true; }

 private:
  bool engaged_ = false;
  Mutex mu_;
};

using MaybeMutex = BasicMaybeMutex<std::mutex>;
using MaybeRecursiveMutex = BasicMaybeMutex<std::recursive_mutex>;

class MaybeSharedMutex {
 public:
  void Engage() { engaged_ = true; }
  bool engaged() const { return engaged_; }

  void lock() {
    if (engaged_) {
      mu_.lock();
    }
  }
  void unlock() {
    if (engaged_) {
      mu_.unlock();
    }
  }
  void lock_shared() {
    if (engaged_) {
      mu_.lock_shared();
    }
  }
  void unlock_shared() {
    if (engaged_) {
      mu_.unlock_shared();
    }
  }

 private:
  bool engaged_ = false;
  std::shared_mutex mu_;
};

}  // namespace spv

#endif  // SPV_BASE_MAYBE_MUTEX_H_
