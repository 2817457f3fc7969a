#include "profiler.hh"

#include <cstring>
#include <map>
#include <string>
#include <utility>

#include "util/json.hh"

namespace hcm {
namespace obs {

namespace {

/**
 * Aggregate tree node: the per-thread trees merged by call path.
 * std::map keys give alphabetical sibling order, so exports are
 * deterministic regardless of thread interleaving.
 */
struct AggNode
{
    std::uint64_t calls = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t childNs = 0;
    std::map<std::string, AggNode> children;

    std::uint64_t
    selfNs() const
    {
        // A stage opened from an earlier start (queue wait) can make a
        // short parent's children appear to exceed it; clamp rather
        // than wrap.
        return totalNs > childNs ? totalNs - childNs : 0;
    }
};

std::size_t
countSites(const AggNode &node)
{
    std::size_t n = node.children.size();
    for (const auto &[name, child] : node.children)
        n += countSites(child);
    return n;
}

void
writeCollapsedNode(std::ostream &out, const AggNode &node,
                   const std::string &path)
{
    if (node.selfNs() > 0 || node.children.empty())
        out << path << " " << node.selfNs() << "\n";
    for (const auto &[name, child] : node.children)
        writeCollapsedNode(out, child, path + ";" + name);
}

void
writeJsonNode(JsonWriter &json, const std::string &name,
              const AggNode &node)
{
    json.beginObject();
    json.kv("name", name);
    json.kv("calls", node.calls);
    json.kv("totalNs", node.totalNs);
    json.kv("selfNs", node.selfNs());
    json.key("children").beginArray();
    for (const auto &[child_name, child] : node.children)
        writeJsonNode(json, child_name, child);
    json.endArray();
    json.endObject();
}

} // namespace

Profiler &
Profiler::instance()
{
    static Profiler profiler;
    return profiler;
}

Profiler::ThreadProfile &
Profiler::localProfile()
{
    // The profiler keeps one reference so a short-lived worker's tree
    // survives past the thread's exit (same pattern as the tracer).
    thread_local std::shared_ptr<ThreadProfile> profile = [this] {
        auto fresh = std::make_shared<ThreadProfile>();
        std::lock_guard<std::mutex> lock(_mu);
        _profiles.push_back(fresh);
        return fresh;
    }();
    return *profile;
}

std::uint32_t
Profiler::childOf(ThreadProfile &tp, std::uint32_t parent,
                  const char *name)
{
    for (std::uint32_t idx : tp.nodes[parent].children) {
        const char *existing = tp.nodes[idx].name;
        if (existing == name || std::strcmp(existing, name) == 0)
            return idx;
    }
    std::uint32_t idx = static_cast<std::uint32_t>(tp.nodes.size());
    tp.nodes.push_back(Node{name, parent});
    tp.nodes[parent].children.push_back(idx);
    return idx;
}

void
Profiler::enter(const char *name)
{
    ThreadProfile &tp = localProfile();
    std::lock_guard<std::mutex> lock(tp.mu);
    std::uint32_t parent = tp.stack.empty() ? 0 : tp.stack.back();
    tp.stack.push_back(childOf(tp, parent, name));
}

void
Profiler::exit(std::uint64_t dur_ns)
{
    ThreadProfile &tp = localProfile();
    std::lock_guard<std::mutex> lock(tp.mu);
    // An empty stack means clear() ran mid-stage; the interrupted
    // call's timing is dropped rather than misattributed.
    if (tp.stack.empty())
        return;
    Node &node = tp.nodes[tp.stack.back()];
    tp.stack.pop_back();
    node.calls += 1;
    node.totalNs += dur_ns;
    tp.nodes[node.parent].childNs += dur_ns;
}

void
Profiler::writeAggregate(std::ostream &out, bool as_json)
{
    AggNode root;
    {
        std::lock_guard<std::mutex> lock(_mu);
        for (const auto &tp : _profiles) {
            std::lock_guard<std::mutex> inner(tp->mu);
            // Depth-first path-merge, carrying the aggregate node each
            // thread-tree node maps onto. Only completed calls are
            // counted; frames still on a stack contribute nothing yet.
            std::vector<std::pair<std::uint32_t, AggNode *>> todo;
            todo.emplace_back(0, &root);
            while (!todo.empty()) {
                auto [idx, agg] = todo.back();
                todo.pop_back();
                const Node &node = tp->nodes[idx];
                if (idx != 0) {
                    agg->calls += node.calls;
                    agg->totalNs += node.totalNs;
                    agg->childNs += node.childNs;
                }
                for (std::uint32_t child : node.children)
                    todo.emplace_back(
                        child, &agg->children[tp->nodes[child].name]);
            }
        }
    }
    if (as_json) {
        JsonWriter json(out);
        json.beginObject();
        json.kv("enabled", enabled());
        json.kv("sites", countSites(root));
        json.key("roots").beginArray();
        for (const auto &[name, child] : root.children)
            writeJsonNode(json, name, child);
        json.endArray();
        json.endObject();
    } else {
        for (const auto &[name, child] : root.children)
            writeCollapsedNode(out, child, name);
    }
}

void
Profiler::writeCollapsed(std::ostream &out)
{
    writeAggregate(out, false);
}

void
Profiler::writeJson(std::ostream &out)
{
    writeAggregate(out, true);
}

std::size_t
Profiler::siteCount()
{
    std::size_t sites = 0;
    std::lock_guard<std::mutex> lock(_mu);
    for (const auto &tp : _profiles) {
        std::lock_guard<std::mutex> inner(tp->mu);
        sites += tp->nodes.size() - 1; // minus the synthetic root
    }
    return sites;
}

void
Profiler::clear()
{
    std::lock_guard<std::mutex> lock(_mu);
    for (const auto &tp : _profiles) {
        std::lock_guard<std::mutex> inner(tp->mu);
        tp->nodes.clear();
        tp->nodes.push_back(Node{"", 0});
        tp->stack.clear();
    }
}

} // namespace obs
} // namespace hcm
