// Control for the thread-safety compile-fail harness: correct use of every
// annotated primitive. This file MUST compile clean under
// `clang++ -fsyntax-only -Wthread-safety -Werror=thread-safety`; if it does
// not, the harness is broken and the negative tests prove nothing.
#include <vector>

#include "common/sync.hpp"
#include "common/thread_annotations.hpp"

namespace {

class Guarded {
 public:
  void push(int v) {
    aks::MutexLock lock(mutex_);
    values_.push_back(v);
    cv_.notify_one();
  }

  int wait_and_pop() {
    aks::MutexLock lock(mutex_);
    while (values_.empty()) {
      cv_.wait(lock);
    }
    const int v = values_.back();
    values_.pop_back();
    return v;
  }

  void append_locked(int v) AKS_REQUIRES(mutex_) { values_.push_back(v); }

  void append(int v) AKS_EXCLUDES(mutex_) {
    aks::MutexLock lock(mutex_);
    append_locked(v);
  }

 private:
  aks::Mutex mutex_{"compile_fail.control"};
  aks::CondVar cv_;
  std::vector<int> values_ AKS_GUARDED_BY(mutex_);
};

}  // namespace

int main() {
  Guarded guarded;
  guarded.push(1);
  guarded.append(2);
  return guarded.wait_and_pop();
}
