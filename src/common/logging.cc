#include "common/logging.hh"

#include <iostream>
#include <stdexcept>

#include "common/mutex.hh"

namespace adrias
{

namespace
{

Mutex logMutex;

void
emit(const char *tag, const std::string &message)
{
    MutexLock lock(logMutex);
    std::cerr << "[adrias:" << tag << "] " << message << "\n";
}

} // namespace

void
logWarn(const std::string &message)
{
    emit("WARN", message);
}

void
logError(const std::string &message)
{
    emit("ERROR", message);
}

void
fatal(const std::string &message)
{
    emit("ERROR", "fatal: " + message);
    throw std::runtime_error("fatal: " + message);
}

void
panic(const std::string &message)
{
    emit("ERROR", "panic: " + message);
    throw std::logic_error("panic: " + message);
}

} // namespace adrias
