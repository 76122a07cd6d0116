// Analyzer fixture: dead API the unused-api pass must flag.  Never
// compiled — parsed by tools/analyze self-tests, with
// unused_api_user.cc as the only user.

#ifndef ADRIAS_ANALYZE_FIXTURE_BAD_UNUSED_API_HH
#define ADRIAS_ANALYZE_FIXTURE_BAD_UNUSED_API_HH

namespace adrias::fixture
{

class Meter
{
  public:
    void record(double value);
    double mean() const;

    /** Flagged: nothing calls it. */
    void reset();

    /** Flagged: a waiver with no reason is itself a finding. */
    bool try_lock(); // NOLINT(unused-api)
};

/** Flagged: a class nothing names. */
struct Gauge
{
    double level = 0.0;
};

/** Flagged: declared and defined, never called. */
double clamp01(double value);

inline double
clamp01(double value)
{
    return value < 0.0 ? 0.0 : value > 1.0 ? 1.0 : value;
}

/** Flagged: it only calls itself. */
inline int
countdown(int n)
{
    return n <= 0 ? 0 : countdown(n - 1);
}

double scale(double value);

} // namespace adrias::fixture

#endif // ADRIAS_ANALYZE_FIXTURE_BAD_UNUSED_API_HH
