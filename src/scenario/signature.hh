/**
 * @file
 * Application signatures (paper §V-B): the sequence of monitored
 * metrics during an application's isolated execution on remote memory,
 * used as the per-app identity input k of the performance model.
 */

#ifndef ADRIAS_SCENARIO_SIGNATURE_HH
#define ADRIAS_SCENARIO_SIGNATURE_HH

#include <map>
#include <string>
#include <vector>

#include "common/error.hh"
#include "common/io/binary.hh"
#include "ml/matrix.hh"
#include "testbed/params.hh"
#include "workloads/spec.hh"

namespace adrias::scenario
{

/** In-memory registry of application signatures, keyed by app name. */
class SignatureStore
{
  public:
    /** @return true when a signature for this app is known. */
    bool has(const std::string &name) const;

    /** Fetch a signature. @throws when unknown. */
    const std::vector<ml::Matrix> &get(const std::string &name) const;

    /** Insert or replace a signature. */
    void put(const std::string &name, std::vector<ml::Matrix> signature);

    /** Remove one signature if present (leave-one-out experiments). */
    void erase(const std::string &name);

    /** @return number of stored signatures. */
    std::size_t size() const { return signatures.size(); }

    /** @return all stored app names. */
    std::vector<std::string> names() const;

    /** Serialize every signature (name + matrix shapes + raw data). */
    void saveState(io::BinaryWriter &out) const;

    /** Replace the store's contents with a saveState() payload. */
    [[nodiscard]] Result<void> restoreState(io::BinaryReader &in);

  private:
    std::map<std::string, std::vector<ml::Matrix>> signatures;
};

/**
 * Profile one application in isolation on remote memory and return its
 * signature: the run's counter trace binned into kWindowBins steps.
 *
 * @param spec application to profile.
 * @param params testbed calibration.
 * @param seed RNG seed (counter noise, latency noise).
 * @param max_seconds profiling budget for long-running servers.
 */
std::vector<ml::Matrix>
collectSignature(const workloads::WorkloadSpec &spec,
                 testbed::TestbedParams params = {},
                 std::uint64_t seed = 7, SimTime max_seconds = 400);

/** Profile every Spark and LC application into the store. */
void collectAllSignatures(SignatureStore &store,
                          testbed::TestbedParams params = {},
                          std::uint64_t seed = 7);

} // namespace adrias::scenario

#endif // ADRIAS_SCENARIO_SIGNATURE_HH
