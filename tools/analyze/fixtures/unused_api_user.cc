// Analyzer fixture: the user of good_unused_api.hh and
// bad_unused_api.hh.  Never compiled — parsed by tools/analyze
// self-tests as a reference-only file.

namespace adrias::fixture
{

double
useTheApi()
{
    Meter meter;
    meter.record(scale(1.0));
    return meter.mean();
}

} // namespace adrias::fixture
