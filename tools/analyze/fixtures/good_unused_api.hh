// Analyzer fixture: an API every entity of which is used, or waived
// with a reason.  Never compiled — parsed by tools/analyze self-tests,
// with unused_api_user.cc as the only user.

#ifndef ADRIAS_ANALYZE_FIXTURE_GOOD_UNUSED_API_HH
#define ADRIAS_ANALYZE_FIXTURE_GOOD_UNUSED_API_HH

#include <cstddef>

namespace adrias::fixture
{

class Meter; // a forward declaration is not a use

class Meter
{
  public:
    Meter() = default;  // constructors are never findings
    ~Meter() = default; // nor destructors
    Meter(const Meter &) = delete;
    bool operator==(const Meter &) const = default; // nor operators

    void record(double value);

    /** Used from another member's body: that counts. */
    double mean() const { return total / static_cast<double>(count()); }

    // NOLINTNEXTLINE(unused-api): std::Lockable requires try_lock.
    bool try_lock();

  private:
    std::size_t count() const { return samples; }

    double total = 0.0;
    std::size_t samples = 0;
};

double scale(double value);
double scale(int value); // shares the called name, so counts as used

double clamp01(double value); // NOLINT(unused-api): kept for a reason

} // namespace adrias::fixture

namespace std
{

/** A specialization is reached through its primary template. */
template <>
struct hash<adrias::fixture::Meter>
{
    std::size_t operator()(const adrias::fixture::Meter &) const;
};

} // namespace std

#endif // ADRIAS_ANALYZE_FIXTURE_GOOD_UNUSED_API_HH
