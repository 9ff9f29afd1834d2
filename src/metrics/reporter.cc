#include "metrics/reporter.h"

#include <cstdio>
#include <fstream>

#include "common/logging.h"

namespace frugal {

TablePrinter::TablePrinter(std::string caption,
                           std::vector<std::string> headers)
    : caption_(std::move(caption)), headers_(std::move(headers))
{
    FRUGAL_CHECK(!headers_.empty());
}

void
TablePrinter::AddRow(std::vector<std::string> cells)
{
    FRUGAL_CHECK_MSG(cells.size() == headers_.size(),
                     "row has " << cells.size() << " cells, table has "
                                << headers_.size() << " columns");
    rows_.push_back(std::move(cells));
}

void
TablePrinter::Print() const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_) {
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());
    }

    std::printf("%s\n", caption_.c_str());
    auto print_row = [&](const std::vector<std::string> &cells) {
        std::printf("  ");
        for (std::size_t c = 0; c < cells.size(); ++c) {
            std::printf("%-*s", static_cast<int>(widths[c] + 2),
                        cells[c].c_str());
        }
        std::printf("\n");
    };
    print_row(headers_);
    std::size_t total = headers_.size() * 2 + 2;
    for (std::size_t w : widths)
        total += w;
    std::printf("  ");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
        for (std::size_t i = 0; i < widths[c]; ++i)
            std::printf("-");
        std::printf("  ");
    }
    std::printf("\n");
    for (const auto &row : rows_)
        print_row(row);
    std::printf("\n");
}

void
TablePrinter::WriteCsv(const std::string &path) const
{
    std::ofstream out(path);
    FRUGAL_CHECK_MSG(out.good(), "cannot open " << path);
    auto write_row = [&](const std::vector<std::string> &cells) {
        for (std::size_t c = 0; c < cells.size(); ++c) {
            if (c)
                out << ",";
            out << cells[c];
        }
        out << "\n";
    };
    write_row(headers_);
    for (const auto &row : rows_)
        write_row(row);
}

std::string
FormatCount(double value)
{
    char buf[48];
    if (value >= 1e9)
        std::snprintf(buf, sizeof(buf), "%.2fB", value / 1e9);
    else if (value >= 1e6)
        std::snprintf(buf, sizeof(buf), "%.2fM", value / 1e6);
    else if (value >= 1e3)
        std::snprintf(buf, sizeof(buf), "%.1fk", value / 1e3);
    else
        std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
}

std::string
FormatSeconds(double seconds)
{
    char buf[48];
    if (seconds >= 1.0)
        std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
    else if (seconds >= 1e-3)
        std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
    else if (seconds >= 1e-6)
        std::snprintf(buf, sizeof(buf), "%.2f us", seconds * 1e6);
    else
        std::snprintf(buf, sizeof(buf), "%.0f ns", seconds * 1e9);
    return buf;
}

std::string
FormatDouble(double value, int precision)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
    return buf;
}

std::string
FormatSpeedup(double ratio)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.2fx", ratio);
    return buf;
}

std::string
FormatBandwidthGbps(double bytes_per_second)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.2f GB/s", bytes_per_second / 1e9);
    return buf;
}

void
PrintBanner(const std::string &experiment_id,
            const std::string &description)
{
    std::printf("==============================================================\n");
    std::printf("%s — %s\n", experiment_id.c_str(), description.c_str());
    std::printf("==============================================================\n\n");
}

void
WriteJson(const std::vector<Metric> &metrics, const std::string &path)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    std::fprintf(out, "[\n");
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::fprintf(out,
                     "  {\"metric\": \"%s\", \"value\": %.6g, "
                     "\"unit\": \"%s\"%s}%s\n",
                     metrics[i].name.c_str(), metrics[i].value,
                     metrics[i].unit.c_str(),
                     metrics[i].lower_is_better ? ", \"better\": \"lower\""
                                                : "",
                     i + 1 < metrics.size() ? "," : "");
    }
    std::fprintf(out, "]\n");
    std::fclose(out);
    std::printf("wrote %s (%zu metrics)\n", path.c_str(), metrics.size());
}

bool
ParseBenchArgs(int argc, char **argv, BenchArgs *args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            args->smoke = true;
        } else if (arg == "--out" && i + 1 < argc) {
            args->out_path = argv[++i];
        } else {
            std::fprintf(stderr, "usage: %s [--smoke] [--out PATH]\n",
                         argv[0]);
            return false;
        }
    }
    return true;
}

}  // namespace frugal
