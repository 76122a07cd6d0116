/**
 * @file
 * Annotated mutex wrappers for Clang's thread-safety analysis.
 *
 * std::mutex carries no capability attributes, so guarded members
 * cannot reference it from ADRIAS_GUARDED_BY.  Mutex wraps it with the
 * capability annotations and MutexLock is the annotated lock_guard
 * equivalent; together a Clang `-Wthread-safety` build statically
 * checks that guarded state is only touched under its lock.
 */

#ifndef ADRIAS_COMMON_MUTEX_HH
#define ADRIAS_COMMON_MUTEX_HH

#include <mutex>

#include "common/thread_annotations.hh"

namespace adrias
{

/** An annotated std::mutex (see thread_annotations.hh). */
class ADRIAS_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    /** Block until the mutex is held. */
    void lock() ADRIAS_ACQUIRE() { impl.lock(); }

    /** Release the mutex. */
    void unlock() ADRIAS_RELEASE() { impl.unlock(); }

    /** @return true (with the mutex held) if it was free. */
    // NOLINTNEXTLINE(unused-api): std::Lockable requires try_lock.
    bool try_lock() ADRIAS_TRY_ACQUIRE(true) { return impl.try_lock(); }

  private:
    std::mutex impl;
};

/** RAII lock over an annotated Mutex (annotated lock_guard). */
class ADRIAS_SCOPED_CAPABILITY MutexLock
{
  public:
    /** Acquire `mutex` for this scope. */
    explicit MutexLock(Mutex &mutex) ADRIAS_ACQUIRE(mutex) : held(mutex)
    {
        held.lock();
    }

    ~MutexLock() ADRIAS_RELEASE() { held.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &held;
};

} // namespace adrias

#endif // ADRIAS_COMMON_MUTEX_HH
