#include "truth.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>

#include "core/io.hpp"
#include "core/logging.hpp"

namespace perfbench {

using pgb::graph::PanGraph;
using pgb::graph::PathId;
using pgb::pipeline::ReadMapping;

TruthChecker::TruthChecker(const PanGraph &graph,
                           const std::vector<PathId> &donor_paths,
                           uint64_t slack)
    : slack_(slack)
{
    occurrences_.resize(donor_paths.size());
    for (size_t d = 0; d < donor_paths.size(); ++d) {
        uint64_t offset = 0;
        for (const auto step : graph.pathSteps(donor_paths[d])) {
            const uint64_t length = graph.nodeLength(step.node());
            occurrences_[d][step.node()].push_back(
                {offset, offset + length});
            offset += length;
        }
    }
}

Verdict
TruthChecker::judge(const ReadTruth &truth,
                    const ReadMapping &mapping) const
{
    if (!mapping.mapped)
        return Verdict::kUnmapped;
    if (mapping.reverse != truth.reverse)
        return Verdict::kWrongStrand;
    if (truth.donor >= occurrences_.size())
        return Verdict::kWrongLocus;
    const auto &donor = occurrences_[truth.donor];
    const auto it = donor.find(mapping.node);
    if (it == donor.end())
        return Verdict::kWrongLocus;
    const uint64_t lo = truth.start > slack_ ? truth.start - slack_ : 0;
    const uint64_t hi = truth.start + truth.span + slack_;
    for (const Occurrence &occurrence : it->second) {
        if (occurrence.start < hi && occurrence.end > lo)
            return Verdict::kCorrect;
    }
    return Verdict::kWrongLocus;
}

namespace {

template <typename T>
bool
parseNumber(std::string_view field, T &out)
{
    const auto [end, error] =
        std::from_chars(field.data(), field.data() + field.size(), out);
    return error == std::errc() && end == field.data() + field.size();
}

} // namespace

bool
parseRow(std::string_view line, std::string &name, ReadMapping &mapping)
{
    std::string_view fields[5];
    size_t count = 0;
    while (count < 5) {
        const size_t tab = line.find('\t');
        fields[count++] = line.substr(0, tab);
        if (tab == std::string_view::npos) {
            line = {};
            break;
        }
        line.remove_prefix(tab + 1);
    }
    if (count != 5 || !line.empty() || fields[0].empty())
        return false;
    int mapped = 0, reverse = 0;
    if (!parseNumber(fields[1], mapped) ||
        !parseNumber(fields[2], mapping.node) ||
        !parseNumber(fields[3], mapping.score) ||
        !parseNumber(fields[4], reverse) || mapped > 1 || reverse > 1 ||
        mapped < 0 || reverse < 0) {
        return false;
    }
    mapping.mapped = mapped == 1;
    mapping.reverse = reverse == 1;
    name.assign(fields[0]);
    return true;
}

MappingTally
checkRows(std::string_view text, const std::vector<ReadTruth> &truths,
          const TruthChecker &checker)
{
    MappingTally tally;
    tally.attempted = truths.size();
    auto note = [&tally](std::string message) {
        ++tally.structureErrors;
        if (tally.firstError.empty())
            tally.firstError = std::move(message);
    };
    size_t next = 0;
    std::string name;
    while (!text.empty()) {
        const size_t newline = text.find('\n');
        if (newline == std::string_view::npos) {
            note("unterminated last row");
            break;
        }
        const std::string_view line = text.substr(0, newline);
        text.remove_prefix(newline + 1);
        ReadMapping mapping;
        if (!parseRow(line, name, mapping)) {
            note("malformed row '" + std::string(line) + "'");
            continue;
        }
        if (next >= truths.size()) {
            note("extra row for '" + name + "'");
            continue;
        }
        if (name != truths[next].name) {
            note("row " + std::to_string(next) + " is '" + name +
                 "', expected '" + truths[next].name + "'");
            // Resynchronise on the named read if it is still ahead.
            size_t ahead = next;
            while (ahead < truths.size() && truths[ahead].name != name)
                ++ahead;
            if (ahead == truths.size())
                continue;
            next = ahead;
        }
        const ReadTruth &truth = truths[next++];
        ++tally.rows;
        switch (checker.judge(truth, mapping)) {
          case Verdict::kCorrect:
            ++tally.correct;
            ++tally.mapped;
            break;
          case Verdict::kWrongStrand:
            ++tally.wrongStrand;
            ++tally.mapped;
            break;
          case Verdict::kWrongLocus:
            ++tally.wrongLocus;
            ++tally.mapped;
            break;
          case Verdict::kUnmapped:
            break;
        }
    }
    if (next < truths.size())
        note(std::to_string(truths.size() - next) + " read(s) without "
             "a row, first '" + truths[next].name + "'");
    return tally;
}

SpellTally
checkPathsSpell(const PanGraph &graph,
                const std::vector<pgb::seq::Sequence> &assemblies)
{
    SpellTally tally;
    tally.checked = assemblies.size();
    auto note = [&tally](std::string message) {
        if (tally.firstError.empty())
            tally.firstError = std::move(message);
    };
    if (graph.pathCount() != assemblies.size()) {
        note("graph has " + std::to_string(graph.pathCount()) +
             " paths for " + std::to_string(assemblies.size()) +
             " assemblies");
    }
    const size_t paths = std::min(graph.pathCount(), assemblies.size());
    for (size_t p = 0; p < paths; ++p) {
        const auto path = static_cast<PathId>(p);
        const auto &assembly = assemblies[p];
        if (graph.pathName(path) != assembly.name()) {
            note("path " + std::to_string(p) + " is named '" +
                 graph.pathName(path) + "', expected '" +
                 assembly.name() + "'");
            continue;
        }
        const auto &steps = graph.pathSteps(path);
        bool walks = true;
        for (size_t s = 1; s < steps.size() && walks; ++s)
            walks = graph.hasEdge(steps[s - 1], steps[s]);
        if (!walks) {
            note("path '" + assembly.name() + "' steps off the graph");
            continue;
        }
        if (graph.pathSequence(path).codes() != assembly.codes()) {
            note("path '" + assembly.name() +
                 "' does not spell its assembly");
            continue;
        }
        ++tally.spelled;
    }
    return tally;
}

void
writeTruth(const std::string &path, const std::vector<ReadTruth> &truths)
{
    pgb::core::CheckedWriter writer(path);
    for (const ReadTruth &truth : truths) {
        writer.stream() << truth.name << '\t' << truth.donor << '\t'
                        << truth.start << '\t' << truth.span << '\t'
                        << (truth.reverse ? 1 : 0) << '\n';
    }
    writer.finish();
}

std::vector<ReadTruth>
readTruth(const std::string &path)
{
    std::ifstream input(path);
    if (!input)
        pgb::core::fatal("perfbench: cannot open truth file '", path, "'");
    std::vector<ReadTruth> truths;
    std::string line;
    while (std::getline(input, line)) {
        std::istringstream fields(line);
        ReadTruth truth;
        int reverse = 0;
        if (!(fields >> truth.name >> truth.donor >> truth.start >>
              truth.span >> reverse)) {
            pgb::core::fatal("perfbench: malformed truth row '", line,
                             "' in ", path);
        }
        truth.reverse = reverse != 0;
        truths.push_back(std::move(truth));
    }
    return truths;
}

} // namespace perfbench
