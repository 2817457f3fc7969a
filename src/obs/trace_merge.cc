#include "trace_merge.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <sstream>

#include "util/json.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace obs {
namespace {

/** Re-emit a parsed JSON value verbatim through the streaming writer. */
void
writeJsonValue(JsonWriter &json, const JsonValue &v)
{
    switch (v.type()) {
      case JsonValue::Type::Null:
        json.null();
        break;
      case JsonValue::Type::Bool:
        json.value(v.asBool());
        break;
      case JsonValue::Type::Number:
        json.value(v.asNumber());
        break;
      case JsonValue::Type::String:
        json.value(v.asString());
        break;
      case JsonValue::Type::Array:
        json.beginArray();
        for (const JsonValue &item : v.items())
            writeJsonValue(json, item);
        json.endArray();
        break;
      case JsonValue::Type::Object:
        json.beginObject();
        for (const auto &[key, member] : v.members()) {
            json.key(key);
            writeJsonValue(json, member);
        }
        json.endObject();
        break;
    }
}

bool
fail(std::string *error, const std::string &why)
{
    if (error)
        *error = why;
    return false;
}

/** Phase string of one event ("" when absent or non-string). */
std::string
eventPhase(const JsonValue &event)
{
    const JsonValue *ph = event.find("ph");
    return ph && ph->isString() ? ph->asString() : "";
}

} // namespace

bool
validateChromeTrace(const std::string &text, std::string *error,
                    TraceStats *stats)
{
    TraceStats out;
    std::string why;
    auto doc = JsonValue::parse(text, &why);
    if (!doc)
        return fail(error, "not valid JSON: " + why);
    if (!doc->isObject())
        return fail(error, "trace root must be an object");
    const JsonValue *events = doc->find("traceEvents");
    if (!events || !events->isArray())
        return fail(error, "missing \"traceEvents\" array");
    if (const JsonValue *merged = doc->find("mergedFrom")) {
        // 2^53: past it a double no longer holds every integer.
        double count = merged->isNumber() ? merged->asNumber() : 0.0;
        if (!(count >= 1 && count <= 0x1p53) ||
            count != std::floor(count))
            return fail(error,
                        "\"mergedFrom\" must be an integral count >= 1");
        out.mergedFrom = static_cast<std::size_t>(count);
    }

    // One pass collects everything the cross-file invariants need:
    // flow pairing by (cat, id), per-pid timestamp order, pid span.
    std::map<std::string, std::pair<bool, bool>> flows; // id -> (s, f)
    std::map<double, double> last_ts_by_pid;
    std::set<double> pids;
    std::size_t index = 0;
    for (const JsonValue &event : events->items()) {
        auto at = [&] { return "event " + std::to_string(index); };
        if (!event.isObject())
            return fail(error, at() + " is not an object");
        for (const char *k : {"name", "ph", "ts", "pid", "tid"})
            if (!event.find(k))
                return fail(error,
                            at() + " missing \"" + std::string(k) +
                                "\"");
        const JsonValue *ts = event.find("ts");
        if (!ts->isNumber() || ts->asNumber() < 0.0)
            return fail(error,
                        at() + " \"ts\" must be a non-negative number");
        const JsonValue *pid = event.find("pid");
        if (!pid->isNumber())
            return fail(error, at() + " \"pid\" must be a number");
        pids.insert(pid->asNumber());

        std::string phase = eventPhase(event);
        if (phase == "X") {
            const JsonValue *dur = event.find("dur");
            if (!dur || !dur->isNumber() || dur->asNumber() < 0.0)
                return fail(error, at() + " complete event needs a "
                                          "non-negative \"dur\"");
        }
        if (phase == "s" || phase == "t" || phase == "f") {
            const JsonValue *id = event.find("id");
            if (!id || !id->isString())
                return fail(error,
                            at() + " flow event needs a string \"id\"");
            const JsonValue *cat = event.find("cat");
            if (!cat || !cat->isString())
                return fail(error, at() + " flow event needs a \"cat\"");
            auto &pair = flows[cat->asString() + "\x1f" +
                               id->asString()];
            if (phase == "s") {
                ++out.flowStarts;
                pair.first = true;
            } else if (phase == "f") {
                ++out.flowEnds;
                pair.second = true;
            }
        }

        if (out.mergedFrom > 0) {
            auto [it, fresh] =
                last_ts_by_pid.emplace(pid->asNumber(), ts->asNumber());
            if (!fresh) {
                if (ts->asNumber() < it->second)
                    return fail(
                        error,
                        at() + " breaks per-process timestamp order "
                               "(merged traces must be sorted)");
                it->second = ts->asNumber();
            }
        }
        ++index;
    }

    for (const auto &[id, pair] : flows)
        if (pair.first != pair.second)
            ++out.unpairedFlows;

    out.events = index;
    out.processes = pids.size();
    if (out.mergedFrom > 0) {
        if (out.unpairedFlows > 0)
            return fail(error,
                        std::to_string(out.unpairedFlows) +
                            " flow id(s) missing a begin or an end "
                            "(merged traces must pair every flow)");
        if (out.processes < out.mergedFrom)
            return fail(error,
                        "merged from " +
                            std::to_string(out.mergedFrom) +
                            " inputs but only " +
                            std::to_string(out.processes) +
                            " distinct pid(s) present");
    }
    if (stats)
        *stats = out;
    return true;
}

bool
mergeChromeTraces(const std::vector<TraceInput> &inputs,
                  std::ostream &out, std::string *error)
{
    if (inputs.empty())
        return fail(error, "nothing to merge");

    struct ParsedInput
    {
        JsonValue doc;
        double shiftUs = 0.0;
        double droppedEvents = 0.0;
    };
    std::vector<ParsedInput> parsed;
    parsed.reserve(inputs.size());
    bool all_anchored = true;
    bool have_min = false;
    double min_wall_us = 0.0;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        std::string why;
        if (!validateChromeTrace(inputs[i].text, &why, nullptr))
            return fail(error, inputs[i].label + ": " + why);
        ParsedInput p;
        p.doc = *JsonValue::parse(inputs[i].text, nullptr);
        if (const JsonValue *dropped = p.doc.find("droppedEvents"))
            if (dropped->isNumber())
                p.droppedEvents = dropped->asNumber();
        const JsonValue *wall = p.doc.find("traceStartWallUs");
        if (wall && wall->isNumber()) {
            double us = wall->asNumber();
            min_wall_us = have_min ? std::min(min_wall_us, us) : us;
            have_min = true;
            p.shiftUs = us; // relative shift resolved below
        } else {
            all_anchored = false;
        }
        parsed.push_back(std::move(p));
    }
    // Wall-clock alignment needs every file anchored; a mixed set
    // falls back to unshifted timestamps (still one document, just
    // not one axis).
    for (ParsedInput &p : parsed)
        p.shiftUs = all_anchored ? p.shiftUs - min_wall_us : 0.0;

    struct Placed
    {
        double ts;
        std::size_t input;
        const JsonValue *event;
    };
    std::vector<Placed> placed;
    double dropped_total = 0.0;
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        dropped_total += parsed[i].droppedEvents;
        for (const JsonValue &event :
             parsed[i].doc.find("traceEvents")->items())
            placed.push_back(Placed{event.find("ts")->asNumber() +
                                        parsed[i].shiftUs,
                                    i, &event});
    }
    std::stable_sort(placed.begin(), placed.end(),
                     [](const Placed &a, const Placed &b) {
                         return a.ts < b.ts;
                     });

    JsonWriter json(out);
    json.beginObject();
    json.kv("displayTimeUnit", "ms");
    json.kv("mergedFrom", inputs.size());
    json.kv("droppedEvents", dropped_total);
    json.key("traceEvents").beginArray();
    // Process names first: pid i+1 is input i, labeled for Perfetto's
    // process tracks.
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        json.beginObject();
        json.kv("name", "process_name");
        json.kv("ph", "M");
        json.kv("pid", static_cast<long long>(i + 1));
        json.kv("tid", 0);
        json.kv("ts", 0.0);
        json.key("args").beginObject();
        json.kv("name", inputs[i].label);
        json.endObject();
        json.endObject();
    }
    for (const Placed &p : placed) {
        json.beginObject();
        for (const auto &[key, member] : p.event->members()) {
            if (key == "pid") {
                json.kv("pid", static_cast<long long>(p.input + 1));
            } else if (key == "ts") {
                json.kv("ts", p.ts);
            } else {
                json.key(key);
                writeJsonValue(json, member);
            }
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return true;
}

} // namespace obs
} // namespace hcm
