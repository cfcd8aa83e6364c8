#include "store/manifest.hpp"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/stat.h>

#include "core/fault.hpp"
#include "core/io.hpp"
#include "core/logging.hpp"
#include "obs/metrics.hpp"
#include "store/format.hpp"

namespace pgb::store {

namespace {

using core::fatal;

core::FaultSite faultManifest(
    "store.manifest",
    "FatalError, non-zero CLI exit; shard set fails closed");

obs::Counter obsManifestLoads("store.manifests_loaded");
obs::Counter obsManifestWrites("store.manifests_written");

/** The directory part of @p path ("" for a bare filename). */
std::string
dirOf(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string()
                                      : path.substr(0, slash + 1);
}

/** Split a manifest line into whitespace-separated tokens. */
std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> tokens;
    std::istringstream stream(line);
    std::string token;
    while (stream >> token)
        tokens.push_back(token);
    return tokens;
}

/**
 * Field accessor for `key=value` tokens. Missing or duplicate keys
 * and malformed values are reported against the manifest line.
 */
class Fields
{
  public:
    Fields(const std::string &path, size_t line,
           const std::vector<std::string> &tokens, size_t first)
        : path_(path), line_(line)
    {
        for (size_t t = first; t < tokens.size(); ++t) {
            const size_t eq = tokens[t].find('=');
            if (eq == std::string::npos || eq == 0)
                fatal(path_, ": line ", line_, ": bad field '",
                      tokens[t], "'");
            fields_.emplace_back(tokens[t].substr(0, eq),
                                 tokens[t].substr(eq + 1));
        }
    }

    std::string
    str(const char *key) const
    {
        for (const auto &[k, v] : fields_) {
            if (k == key)
                return v;
        }
        fatal(path_, ": line ", line_, ": missing field '", key, "'");
    }

    uint64_t
    num(const char *key) const
    {
        const std::string value = str(key);
        errno = 0;
        char *end = nullptr;
        const uint64_t parsed =
            std::strtoull(value.c_str(), &end, 10);
        if (errno != 0 || end == value.c_str() || *end != '\0')
            fatal(path_, ": line ", line_, ": bad number '", value,
                  "' for field '", key, "'");
        return parsed;
    }

    uint64_t
    hex(const char *key) const
    {
        const std::string value = str(key);
        errno = 0;
        char *end = nullptr;
        const uint64_t parsed =
            std::strtoull(value.c_str(), &end, 16);
        if (errno != 0 || end == value.c_str() || *end != '\0')
            fatal(path_, ": line ", line_, ": bad digest '", value,
                  "' for field '", key, "'");
        return parsed;
    }

  private:
    const std::string &path_;
    size_t line_;
    std::vector<std::pair<std::string, std::string>> fields_;
};

std::string
hex16(uint64_t value)
{
    char buffer[17];
    std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, value);
    return buffer;
}

/** Parse "lo-hi[,lo-hi...]" into inclusive ranges. */
std::vector<std::pair<uint32_t, uint32_t>>
parseRanges(const std::string &path, size_t line,
            const std::string &text)
{
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    size_t at = 0;
    while (at < text.size()) {
        size_t comma = text.find(',', at);
        if (comma == std::string::npos)
            comma = text.size();
        const std::string part = text.substr(at, comma - at);
        const size_t dash = part.find('-');
        errno = 0;
        char *end = nullptr;
        const uint64_t lo =
            std::strtoull(part.c_str(), &end, 10);
        bool ok = dash != std::string::npos && errno == 0 &&
                  end == part.c_str() + dash;
        uint64_t hi = 0;
        if (ok) {
            const char *hi_text = part.c_str() + dash + 1;
            hi = std::strtoull(hi_text, &end, 10);
            ok = errno == 0 && end != hi_text && *end == '\0' &&
                 lo <= hi && hi <= UINT32_MAX;
        }
        if (!ok)
            fatal(path, ": line ", line, ": bad node range '", part,
                  "'");
        ranges.emplace_back(static_cast<uint32_t>(lo),
                            static_cast<uint32_t>(hi));
        at = comma + 1;
    }
    if (ranges.empty())
        fatal(path, ": line ", line, ": empty node range list");
    return ranges;
}

} // namespace

std::string
ShardManifest::shardPath(size_t index) const
{
    const std::string &file = shards[index].file;
    if (!file.empty() && file[0] == '/')
        return file;
    return dirOf(path) + file;
}

ShardManifest
ShardManifest::load(const std::string &manifest_path)
{
    if (faultManifest.fire())
        fatal(manifest_path, ": cannot open: injected fault");

    std::ifstream input(manifest_path, std::ios::binary);
    if (!input.good())
        fatal(manifest_path, ": cannot open manifest");
    std::ostringstream slurped;
    slurped << input.rdbuf();
    const std::string text = slurped.str();

    // ---- Trailer first: nothing else is trustworthy until the
    // checksum over every preceding byte has passed.
    const size_t trailer = text.rfind("checksum ");
    if (trailer == std::string::npos ||
        (trailer != 0 && text[trailer - 1] != '\n'))
        fatal(manifest_path, ": manifest has no checksum trailer");
    {
        const size_t eol = text.find('\n', trailer);
        const std::string claimed = text.substr(
            trailer + 9,
            (eol == std::string::npos ? text.size() : eol) -
                trailer - 9);
        errno = 0;
        char *end = nullptr;
        const uint64_t parsed =
            std::strtoull(claimed.c_str(), &end, 16);
        if (errno != 0 || end == claimed.c_str() || *end != '\0' ||
            parsed != fnv1a64(text.data(), trailer))
            fatal(manifest_path,
                  ": manifest corrupt (checksum mismatch)");
    }

    ShardManifest manifest;
    manifest.path = manifest_path;

    // ---- Line-by-line parse of the checksummed body.
    std::istringstream body(text.substr(0, trailer));
    std::string line;
    size_t line_number = 0;
    bool saw_meta = false;
    uint64_t claimed_shards = 0, claimed_components = 0;
    while (std::getline(body, line)) {
        ++line_number;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        const auto tokens = tokenize(line);
        if (line_number == 1) {
            if (tokens.size() != 2 || tokens[0] != "pgbs")
                fatal(manifest_path,
                      ": line 1: not a .pgbs manifest");
            if (tokens[1] != "1")
                fatal(manifest_path, ": manifest version ", tokens[1],
                      " unsupported (this build reads version 1)");
            continue;
        }
        if (tokens.empty())
            continue;
        if (tokens[0] == "meta") {
            if (saw_meta)
                fatal(manifest_path, ": line ", line_number,
                      ": duplicate meta line");
            saw_meta = true;
            const Fields fields(manifest_path, line_number, tokens, 1);
            manifest.nodeCount = fields.num("nodes");
            manifest.edgeCount = fields.num("edges");
            manifest.pathCount = fields.num("paths");
            manifest.totalBases = fields.num("bases");
            manifest.k = static_cast<uint32_t>(fields.num("k"));
            manifest.w = static_cast<uint32_t>(fields.num("w"));
            manifest.seeder = fields.str("seeder");
            manifest.hasGbwt = fields.num("gbwt") != 0;
            claimed_shards = fields.num("shards");
            claimed_components = fields.num("components");
            if (manifest.seeder != "minimizer" &&
                manifest.seeder != "mem")
                fatal(manifest_path, ": line ", line_number,
                      ": unknown seeder '", manifest.seeder, "'");
        } else if (tokens[0] == "shard") {
            if (tokens.size() < 2)
                fatal(manifest_path, ": line ", line_number,
                      ": bad shard line");
            const Fields fields(manifest_path, line_number, tokens, 2);
            const uint64_t index =
                std::strtoull(tokens[1].c_str(), nullptr, 10);
            if (index != manifest.shards.size())
                fatal(manifest_path, ": line ", line_number,
                      ": shard ", tokens[1], " out of order (expected ",
                      manifest.shards.size(), ")");
            ShardEntry entry;
            entry.file = fields.str("file");
            entry.bytes = fields.num("bytes");
            entry.digest = fields.hex("digest");
            entry.nodes = fields.num("nodes");
            entry.paths = fields.num("paths");
            if (entry.file.empty())
                fatal(manifest_path, ": line ", line_number,
                      ": shard ", tokens[1], " has an empty file");
            manifest.shards.push_back(std::move(entry));
        } else if (tokens[0] == "component") {
            if (tokens.size() < 2)
                fatal(manifest_path, ": line ", line_number,
                      ": bad component line");
            const Fields fields(manifest_path, line_number, tokens, 2);
            const uint64_t index =
                std::strtoull(tokens[1].c_str(), nullptr, 10);
            if (index < manifest.components.size())
                fatal(manifest_path, ": line ", line_number,
                      ": duplicate component ", tokens[1]);
            if (index != manifest.components.size())
                fatal(manifest_path, ": line ", line_number,
                      ": component ", tokens[1],
                      " out of order (expected ",
                      manifest.components.size(), ")");
            ComponentEntry entry;
            entry.shard = static_cast<uint32_t>(fields.num("shard"));
            entry.nodes = fields.num("nodes");
            entry.ranges = parseRanges(manifest_path, line_number,
                                       fields.str("ranges"));
            uint64_t counted = 0;
            for (const auto &[lo, hi] : entry.ranges)
                counted += static_cast<uint64_t>(hi) - lo + 1;
            if (counted != entry.nodes)
                fatal(manifest_path, ": line ", line_number,
                      ": component ", tokens[1], " claims ",
                      entry.nodes, " nodes, ranges hold ", counted);
            manifest.components.push_back(std::move(entry));
        } else {
            fatal(manifest_path, ": line ", line_number,
                  ": unrecognized manifest line");
        }
    }
    if (!saw_meta)
        fatal(manifest_path, ": manifest has no meta line");
    if (manifest.shards.size() != claimed_shards)
        fatal(manifest_path, ": meta claims ", claimed_shards,
              " shards, manifest lists ", manifest.shards.size());
    if (manifest.components.size() != claimed_components)
        fatal(manifest_path, ": meta claims ", claimed_components,
              " components, manifest lists ",
              manifest.components.size());
    if (manifest.shards.empty())
        fatal(manifest_path, ": manifest lists no shards");

    // ---- Cross-entry validation: routing must reference listed
    // shards, per-shard node counts must add up, and the component
    // ranges must tile [0, nodeCount) exactly.
    std::vector<uint64_t> shard_nodes(manifest.shards.size(), 0);
    std::vector<std::pair<uint32_t, uint32_t>> all_ranges;
    for (size_t c = 0; c < manifest.components.size(); ++c) {
        const ComponentEntry &component = manifest.components[c];
        if (component.shard >= manifest.shards.size())
            fatal(manifest_path, ": component ", c,
                  " routed to unknown shard ", component.shard);
        shard_nodes[component.shard] += component.nodes;
        all_ranges.insert(all_ranges.end(), component.ranges.begin(),
                          component.ranges.end());
    }
    for (size_t s = 0; s < manifest.shards.size(); ++s) {
        if (shard_nodes[s] != manifest.shards[s].nodes)
            fatal(manifest_path, ": shard ", s, " claims ",
                  manifest.shards[s].nodes,
                  " nodes, its components hold ", shard_nodes[s]);
    }
    std::sort(all_ranges.begin(), all_ranges.end());
    uint64_t covered = 0;
    for (size_t r = 0; r < all_ranges.size(); ++r) {
        if (r > 0 && all_ranges[r].first <= all_ranges[r - 1].second)
            fatal(manifest_path, ": component ranges overlap at node ",
                  all_ranges[r].first);
        covered += static_cast<uint64_t>(all_ranges[r].second) -
                   all_ranges[r].first + 1;
    }
    if (covered != manifest.nodeCount ||
        (covered > 0 &&
         (all_ranges.front().first != 0 ||
          all_ranges.back().second != manifest.nodeCount - 1)))
        fatal(manifest_path, ": component ranges cover ", covered,
              " of ", manifest.nodeCount, " nodes");

    // ---- Shard files must exist with the recorded size; content is
    // digest-verified lazily, when a shard is first mapped in.
    for (size_t s = 0; s < manifest.shards.size(); ++s) {
        const std::string shard_path = manifest.shardPath(s);
        struct stat info = {};
        if (::stat(shard_path.c_str(), &info) != 0)
            fatal(manifest_path, ": missing shard file '", shard_path,
                  "'");
        if (static_cast<uint64_t>(info.st_size) !=
            manifest.shards[s].bytes)
            fatal(manifest_path, ": shard file '", shard_path,
                  "' holds ", static_cast<uint64_t>(info.st_size),
                  " bytes, expected ", manifest.shards[s].bytes);
    }

    obsManifestLoads.add();
    return manifest;
}

void
ShardManifest::save(const std::string &manifest_path) const
{
    std::ostringstream body;
    body << "pgbs 1\n";
    body << "meta nodes=" << nodeCount << " edges=" << edgeCount
         << " paths=" << pathCount << " bases=" << totalBases
         << " k=" << k << " w=" << w << " seeder=" << seeder
         << " gbwt=" << (hasGbwt ? 1 : 0) << " shards=" << shards.size()
         << " components=" << components.size() << "\n";
    for (size_t s = 0; s < shards.size(); ++s) {
        const ShardEntry &shard = shards[s];
        body << "shard " << s << " file=" << shard.file
             << " bytes=" << shard.bytes
             << " digest=" << hex16(shard.digest)
             << " nodes=" << shard.nodes << " paths=" << shard.paths
             << "\n";
    }
    for (size_t c = 0; c < components.size(); ++c) {
        const ComponentEntry &component = components[c];
        body << "component " << c << " shard=" << component.shard
             << " nodes=" << component.nodes << " ranges=";
        for (size_t r = 0; r < component.ranges.size(); ++r) {
            if (r > 0)
                body << ",";
            body << component.ranges[r].first << "-"
                 << component.ranges[r].second;
        }
        body << "\n";
    }
    const std::string bytes = body.str();

    core::atomicReplace(manifest_path, [&](std::ostream &out) {
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        const std::string trailer =
            "checksum " + hex16(fnv1a64(bytes.data(), bytes.size())) +
            "\n";
        out.write(trailer.data(),
                  static_cast<std::streamsize>(trailer.size()));
    });
    obsManifestWrites.add();
}

// ---------------------------------------------------------------------
// ShardRouter
// ---------------------------------------------------------------------

ShardRouter::ShardRouter(const ShardManifest &manifest)
    : path_(manifest.path), byShard_(manifest.shards.size())
{
    for (const ComponentEntry &component : manifest.components) {
        for (const auto &[lo, hi] : component.ranges)
            intervals_.push_back({lo, hi, component.shard, 0});
    }
    std::sort(intervals_.begin(), intervals_.end(),
              [](const Interval &a, const Interval &b) {
                  return a.lo < b.lo;
              });
    // Local ids follow ascending global order within a shard, so the
    // local base of an interval is the number of same-shard nodes in
    // the intervals before it.
    std::vector<uint32_t> running(manifest.shards.size(), 0);
    for (Interval &interval : intervals_) {
        interval.localBase = running[interval.shard];
        running[interval.shard] += interval.hi - interval.lo + 1;
        byShard_[interval.shard].push_back(interval);
    }
}

ShardRouter::Route
ShardRouter::route(uint32_t node) const
{
    const auto it = std::upper_bound(
        intervals_.begin(), intervals_.end(), node,
        [](uint32_t value, const Interval &interval) {
            return value < interval.lo;
        });
    if (it == intervals_.begin() || node > (it - 1)->hi)
        core::fatal(path_, ": node ", node,
                    " is not covered by any shard component");
    const Interval &interval = *(it - 1);
    return {interval.shard,
            interval.localBase + (node - interval.lo)};
}

uint32_t
ShardRouter::globalOf(uint32_t shard, uint32_t local) const
{
    if (shard >= byShard_.size())
        core::fatal(path_, ": shard ", shard, " out of range");
    const auto &intervals = byShard_[shard];
    const auto it = std::upper_bound(
        intervals.begin(), intervals.end(), local,
        [](uint32_t value, const Interval &interval) {
            return value < interval.localBase;
        });
    if (it == intervals.begin() ||
        local > (it - 1)->localBase + ((it - 1)->hi - (it - 1)->lo))
        core::fatal(path_, ": shard ", shard, " local node ", local,
                    " out of range");
    const Interval &interval = *(it - 1);
    return interval.lo + (local - interval.localBase);
}

} // namespace pgb::store
