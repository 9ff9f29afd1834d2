/**
 * @file
 * Paper-style result reporting: aligned ASCII tables (one per figure or
 * table being reproduced) with optional CSV output so results can be
 * re-plotted. Every bench binary prints through this so outputs share
 * one format.
 */
#ifndef FRUGAL_METRICS_REPORTER_H_
#define FRUGAL_METRICS_REPORTER_H_

#include <cstdint>
#include <string>
#include <vector>

namespace frugal {

/** An aligned text table with a caption. */
class TablePrinter
{
  public:
    TablePrinter(std::string caption, std::vector<std::string> headers);

    /** Appends one row; cell count must match the header count. */
    void AddRow(std::vector<std::string> cells);

    /** Renders to stdout. */
    void Print() const;

    /** Writes caption-less CSV to `path` (overwrites). */
    void WriteCsv(const std::string &path) const;

  private:
    std::string caption_;
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** "1.23M", "456k", "789" style magnitude formatting. */
std::string FormatCount(double value);

/** Seconds with an auto-chosen unit ("12.3 ms", "45 µs"). */
std::string FormatSeconds(double seconds);

/** Fixed-precision double. */
std::string FormatDouble(double value, int precision = 2);

/** Ratio as "N.NNx". */
std::string FormatSpeedup(double ratio);

/** Bytes/s as GB/s. */
std::string FormatBandwidthGbps(double bytes_per_second);

/** Prints a section banner for a figure/table reproduction. */
void PrintBanner(const std::string &experiment_id,
                 const std::string &description);

/** One named bench result. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    /** Set for counts where fewer is better (admission declines);
     *  higher is better otherwise. */
    bool lower_is_better = false;
};

/**
 * Writes `metrics` to `path` as the JSON array the committed
 * BENCH_*.json baselines use ({"metric", "value", "unit"} per record,
 * plus "better": "lower" where fewer is better; scripts/bench_diff.py
 * reads it) and reports the write on stdout.
 */
void WriteJson(const std::vector<Metric> &metrics, const std::string &path);

/** The command line of the benches that write a metrics JSON. */
struct BenchArgs
{
    /** `--smoke`: small sizes for a seconds-long CI run. */
    bool smoke = false;
    /** `--out PATH`: where the metrics JSON goes. */
    std::string out_path;
};

/** Parses `[--smoke] [--out PATH]` into `args` (whose fields hold the
 *  defaults); prints the usage and returns false on anything else. */
bool ParseBenchArgs(int argc, char **argv, BenchArgs *args);

}  // namespace frugal

#endif  // FRUGAL_METRICS_REPORTER_H_
