#include "analyze.hh"

#include <algorithm>
#include <fstream>
#include <regex>
#include <sstream>

namespace graphene {
namespace analyze {

namespace fs = std::filesystem;

const LayerConfig::Layer *
LayerConfig::layerOf(const std::string &rel) const
{
    const Layer *best = nullptr;
    std::size_t best_len = 0;
    for (const auto &layer : layers) {
        for (const auto &prefix : layer.pathPrefixes) {
            if (rel.rfind(prefix, 0) != 0)
                continue;
            if (prefix.size() >= best_len) {
                best_len = prefix.size();
                best = &layer;
            }
        }
    }
    return best;
}

namespace {

/** Parse a TOML-style string array: ["a", "b"] (one line). */
bool
parseStringArray(const std::string &text,
                 std::vector<std::string> &out)
{
    static const std::regex item(R"re("([^"]*)")re");
    const std::size_t open = text.find('[');
    const std::size_t close = text.rfind(']');
    if (open == std::string::npos || close == std::string::npos ||
        close < open)
        return false;
    const std::string body =
        text.substr(open + 1, close - open - 1);
    auto begin =
        std::sregex_iterator(body.begin(), body.end(), item);
    for (auto it = begin; it != std::sregex_iterator(); ++it)
        out.push_back((*it)[1].str());
    return true;
}

} // namespace

bool
parseLayersFile(const fs::path &file, LayerConfig &config,
                std::string &error)
{
    std::ifstream in(file);
    if (!in) {
        error = "cannot open " + file.generic_string();
        return false;
    }
    static const std::regex section(
        R"(^\s*\[layer\.([A-Za-z_][\w-]*)\]\s*$)");
    static const std::regex keyval(
        R"(^\s*(paths|deps)\s*=\s*(.*)$)");

    std::string line;
    unsigned lineno = 0;
    LayerConfig::Layer *current = nullptr;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        std::smatch m;
        if (std::regex_match(line, m, section)) {
            for (const auto &l : config.layers)
                if (l.name == m[1].str()) {
                    error = "line " + std::to_string(lineno) +
                            ": duplicate layer '" + m[1].str() + "'";
                    return false;
                }
            config.layers.push_back({});
            current = &config.layers.back();
            current->name = m[1].str();
            current->line = lineno;
            continue;
        }
        if (std::regex_match(line, m, keyval)) {
            if (!current) {
                error = "line " + std::to_string(lineno) +
                        ": key outside a [layer.*] section";
                return false;
            }
            std::vector<std::string> values;
            if (!parseStringArray(m[2].str(), values)) {
                error = "line " + std::to_string(lineno) +
                        ": expected a [\"...\"] array";
                return false;
            }
            if (m[1].str() == "paths") {
                current->pathPrefixes = values;
            } else {
                for (const auto &v : values) {
                    if (v == "*")
                        current->dependsOnAll = true;
                    else
                        current->deps.insert(v);
                }
            }
            continue;
        }
        error = "line " + std::to_string(lineno) +
                ": unrecognised syntax: " + line;
        return false;
    }
    if (config.layers.empty()) {
        error = "no [layer.*] sections in " + file.generic_string();
        return false;
    }
    // Referential integrity: every dep must name a declared layer.
    std::set<std::string> names;
    for (const auto &l : config.layers)
        names.insert(l.name);
    for (const auto &l : config.layers)
        for (const auto &d : l.deps)
            if (!names.count(d)) {
                error = "layer '" + l.name +
                        "' depends on undeclared layer '" + d + "'";
                return false;
            }
    return true;
}

namespace {

/** Detect a cycle in the declared layer DAG (config sanity). */
bool
layerDagCycle(const LayerConfig &config, std::string &cycle)
{
    std::map<std::string, int> state; // 0 new, 1 open, 2 done
    std::map<std::string, const LayerConfig::Layer *> by_name;
    for (const auto &l : config.layers)
        by_name[l.name] = &l;

    std::vector<std::string> path;
    std::function<bool(const std::string &)> visit =
        [&](const std::string &name) {
            state[name] = 1;
            path.push_back(name);
            const auto *layer = by_name[name];
            if (layer && !layer->dependsOnAll) {
                for (const auto &dep : layer->deps) {
                    if (dep == name)
                        continue;
                    if (state[dep] == 1) {
                        cycle.clear();
                        for (const auto &p : path)
                            cycle += p + " -> ";
                        cycle += dep;
                        return true;
                    }
                    if (state[dep] == 0 && visit(dep))
                        return true;
                }
            }
            path.pop_back();
            state[name] = 2;
            return false;
        };
    for (const auto &l : config.layers)
        if (state[l.name] == 0 && visit(l.name))
            return true;
    return false;
}

struct IncludeEdge
{
    std::size_t from;     ///< corpus file index
    std::size_t to;       ///< corpus file index
    unsigned line;        ///< include line in `from`
    std::string spelling; ///< the quoted include text
};

/**
 * Resolve quoted includes against src/ (the canonical include root),
 * the includer's own directory, and the repo root.
 */
std::vector<IncludeEdge>
resolveIncludes(const Corpus &corpus)
{
    // The stripped lines gate (comments removed), but the path must
    // come from the raw line: stripLines empties string literals, so
    // stripped include lines read `#include ""`.
    static const std::regex gate(R"re(^\s*#\s*include\s+")re");
    static const std::regex inc(
        R"re(^\s*#\s*include\s+"([^"]+)")re");
    std::vector<IncludeEdge> edges;
    for (std::size_t fi = 0; fi < corpus.files.size(); ++fi) {
        const SourceFile &file = corpus.files[fi];
        const std::string dir =
            fs::path(file.rel).parent_path().generic_string();
        for (std::size_t i = 0; i < file.code.size(); ++i) {
            if (!std::regex_search(file.code[i], gate))
                continue;
            std::smatch m;
            if (!std::regex_search(file.raw[i], m, inc))
                continue;
            const std::string spelled = m[1].str();
            const std::string candidates[] = {
                "src/" + spelled,
                dir.empty() ? spelled : dir + "/" + spelled,
                spelled,
            };
            for (const auto &candidate : candidates) {
                const auto it = corpus.byRel.find(candidate);
                if (it == corpus.byRel.end())
                    continue;
                edges.push_back({fi, it->second,
                                 static_cast<unsigned>(i + 1),
                                 spelled});
                break;
            }
        }
    }
    return edges;
}

/** Report every include cycle once, with the full path. */
void
findIncludeCycles(const Corpus &corpus,
                  const std::vector<IncludeEdge> &edges,
                  std::vector<Finding> &findings)
{
    std::vector<std::vector<std::size_t>> adj(corpus.files.size());
    for (const auto &e : edges)
        adj[e.from].push_back(e.to);

    std::vector<int> state(corpus.files.size(), 0);
    std::vector<std::size_t> path;
    std::set<std::string> reported;

    std::function<void(std::size_t)> visit = [&](std::size_t u) {
        state[u] = 1;
        path.push_back(u);
        for (const std::size_t v : adj[u]) {
            if (state[v] == 1) {
                // Found a cycle: path from v..u then back to v.
                auto it =
                    std::find(path.begin(), path.end(), v);
                std::vector<std::string> names;
                for (; it != path.end(); ++it)
                    names.push_back(corpus.files[*it].rel);
                // Canonical form for dedup: rotate to smallest.
                auto min_it = std::min_element(names.begin(),
                                               names.end());
                std::rotate(names.begin(), min_it, names.end());
                std::string desc;
                for (const auto &n : names)
                    desc += n + " -> ";
                desc += names.front();
                if (reported.insert(desc).second)
                    findings.push_back(
                        {corpus.files[v].rel, 1, "include-cycle",
                         "include cycle: " + desc, "error"});
            } else if (state[v] == 0) {
                visit(v);
            }
        }
        path.pop_back();
        state[u] = 2;
    };
    for (std::size_t i = 0; i < corpus.files.size(); ++i)
        if (state[i] == 0)
            visit(i);
}

} // namespace

void
runLayerPass(const Corpus &corpus, std::vector<Finding> &findings)
{
    LayerConfig config;
    std::string error;
    if (!parseLayersFile(corpus.layersFile, config, error)) {
        findings.push_back(
            {corpus.layersFile.generic_string(), 0, "layer-config",
             "cannot load layer configuration: " + error, "error"});
        return;
    }
    std::string cycle;
    if (layerDagCycle(config, cycle)) {
        findings.push_back(
            {corpus.layersFile.generic_string(), 0, "layer-config",
             "declared layer DAG contains a cycle: " + cycle,
             "error"});
        return;
    }

    const auto edges = resolveIncludes(corpus);

    // Every scanned file must belong to a declared layer; silent
    // unmapped files would make the whole check advisory.
    std::map<std::size_t, const LayerConfig::Layer *> layer_of;
    for (std::size_t fi = 0; fi < corpus.files.size(); ++fi) {
        const SourceFile &file = corpus.files[fi];
        const auto *layer = config.layerOf(file.rel);
        layer_of[fi] = layer;
        if (!layer)
            findings.push_back(
                {file.rel, 1, "layer-dag",
                 "file is not mapped to any layer in " +
                     corpus.layersFile.generic_string() +
                     "; add its directory to a layer's paths",
                 "error"});
    }

    for (const auto &e : edges) {
        const auto *from = layer_of[e.from];
        const auto *to = layer_of[e.to];
        if (!from || !to || from == to || from->dependsOnAll)
            continue;
        if (from->deps.count(to->name))
            continue;
        const SourceFile &file = corpus.files[e.from];
        if (allowMarker(file.raw, e.line - 1, "layer-dag"))
            continue;
        findings.push_back(
            {file.rel, e.line, "layer-dag",
             "#include \"" + e.spelling +
                 "\" crosses the layer DAG: layer '" + from->name +
                 "' does not declare a dependency on layer '" +
                 to->name + "' (see " +
                 corpus.layersFile.generic_string() + ")",
             "error"});
    }

    findIncludeCycles(corpus, edges, findings);
}

} // namespace analyze
} // namespace graphene
