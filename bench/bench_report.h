// The contract every episode bench (chaos_soak, overload, recovery,
// trace_breakdown, prof, telemetry, sim_engine) keeps. It takes no
// arguments and reads four environment variables:
//   REPRO_FULL=1           full scale; quick otherwise
//   REPRO_SEEDS=n          seed count of the bench's seeded soak
//   REPRO_BENCH_BASELINE   committed BENCH_<name>.json to gate against
//   REPRO_CSV_DIR          artifact directory (default bench_out/)
// Finish() writes $REPRO_CSV_DIR/BENCH_<name>.json as
//   {"bench": name, "scale": "quick"|"full",
//    "checks": {what: bool, ...}, "values": {key: number, ...}}
// with plain dotted value keys (`loss_window.acked_commits`), written so
// that Baseline() reads back the same double bit for bit.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>

namespace repro::bench {

// True when REPRO_FULL=1.
bool FullScale();

// Peak resident set size and CPU seconds (user + system) of this process.
// Host-side readings only: recording them cannot perturb a bench's
// byte-identical sim-side output.
double PeakRssMb();
double CpuSeconds();

// REPRO_SEEDS when set, else 40 at full scale and `quick_default`
// otherwise. A REPRO_SEEDS that is not a positive integer exits 2.
int SeedCount(int quick_default);

// Any argument prints a usage line and exits 2, so a stale flag fails
// loudly.
void RejectArguments(int argc, char** argv);

class Report {
 public:
  explicit Report(std::string name) : name_(std::move(name)) {}

  // Prints "  [pass] what" or "  [FAIL] what" and records the verdict; a
  // name checked twice keeps the conjunction. Returns `ok`.
  bool Check(bool ok, const std::string& what);

  void Value(const std::string& key, double value) { values_[key] = value; }

  // True when REPRO_BENCH_BASELINE names a file.
  bool has_baseline() const;

  // The baseline's number under `key`, or nullopt. A baseline that cannot
  // be read fails a check the first time it is asked for.
  std::optional<double> Baseline(const std::string& key);

  // True when this run's values under `prefix` equal the baseline's,
  // key for key; prints every key that differs.
  bool MatchesBaseline(const std::string& prefix);

  // Writes the JSON file, prints one RESULT line and returns the exit
  // status: 0 when every check passed and the file was written.
  int Finish();

 private:
  const std::map<std::string, double>& BaselineValues();

  std::string name_;
  std::map<std::string, bool> checks_;
  std::map<std::string, double> values_;
  std::optional<std::map<std::string, double>> baseline_;
};

}  // namespace repro::bench
