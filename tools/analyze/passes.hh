/**
 * @file
 * Internal pass entry points for tools/analyze — one function per
 * pass, each appending raw (unsuppressed) findings.  The driver in
 * analyze.cc owns pass registration, NOLINT filtering and ordering.
 * Not installed; include only from tools/analyze sources and tests.
 */

#ifndef ADRIAS_TOOLS_ANALYZE_PASSES_HH
#define ADRIAS_TOOLS_ANALYZE_PASSES_HH

#include <vector>

#include "analyze/analyze.hh"
#include "analyze/index.hh"

namespace adrias::analyze
{

/** checkpoint-coverage: saveState/restoreState member coverage. */
void runCheckpointCoverage(const Index &index,
                           std::vector<Finding> &findings);

/** lock-discipline: GUARDED_BY coverage in mutex-owning classes. */
void runLockDiscipline(const Index &index,
                       std::vector<Finding> &findings);

/** determinism-hazard: unordered iteration into reproducible sinks,
 *  cross-chunk float accumulation in ThreadPool regions. */
void runDeterminismHazard(const Index &index,
                          std::vector<Finding> &findings);

/** unused-api: src/ entities no src/ or user file references.
 *  Whole-program: `declaring` is src/, `users` the reference-only
 *  directories; waivers are checked here, not by the NOLINT filter. */
void runUnusedApi(const Index &index,
                  const std::vector<SourceFile> &declaring,
                  const std::vector<SourceFile> &users,
                  std::vector<Finding> &findings);

} // namespace adrias::analyze

#endif // ADRIAS_TOOLS_ANALYZE_PASSES_HH
