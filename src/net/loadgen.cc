#include "loadgen.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>

#include "net/front_door.hh"
#include "obs/metrics.hh"
#include "obs/request_id.hh"
#include "obs/trace.hh"
#include "svc/request.hh"
#include "util/json.hh"
#include "util/json_parse.hh"

namespace hcm {
namespace net {
namespace {

using Clock = std::chrono::steady_clock;

/** Loadgen's registry instruments (shared across runs in-process). */
struct LoadGenMetrics
{
    obs::Counter &sent;
    obs::Counter &errors;
    obs::Counter &shed;
    obs::Counter &shardUnavailable;
    obs::Histogram &latencyNs;

    LoadGenMetrics()
        : sent(obs::globalRegistry().counter("hcm_loadgen_sent_total")),
          errors(obs::globalRegistry().counter(
              "hcm_loadgen_errors_total")),
          shed(obs::globalRegistry().counter("hcm_loadgen_shed_total")),
          shardUnavailable(obs::globalRegistry().counter(
              "hcm_loadgen_shard_unavailable_total")),
          latencyNs(obs::globalRegistry().histogram(
              "hcm_loadgen_latency_ns"))
    {
    }
};

LoadGenMetrics &
loadGenMetrics()
{
    static LoadGenMetrics metrics;
    return metrics;
}

/**
 * Exact percentile over sorted samples (nearest-rank with linear
 * interpolation). The registry's log2 histogram is only accurate to a
 * factor of two; a loadgen report should not be.
 */
double
exactPercentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    std::size_t lo = static_cast<std::size_t>(std::floor(rank));
    std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/** How one mix entry participates in request-id tagging. */
struct RequestTag
{
    /** Object without an id: each send gets a fresh minted one. */
    bool taggable = false;
    /** Client-authored id already in the payload (sent verbatim). */
    std::string fixed;
};

RequestTag
classifyForTagging(const std::string &payload)
{
    RequestTag tag;
    auto doc = JsonValue::parse(payload, nullptr);
    if (!doc || !doc->isObject())
        return tag;
    if (const JsonValue *rid = doc->find("requestId")) {
        if (rid->isString())
            tag.fixed = rid->asString();
        return tag;
    }
    tag.taggable = true;
    return tag;
}

} // namespace

std::vector<std::string>
parseMixText(const std::string &text, std::string *error)
{
    // A mix that parses as ONE document is a batch file; the parser
    // insists on consuming the whole input, so multi-line JSONL can
    // never be mistaken for one.
    if (auto texts = svc::splitBatchRequestTexts(text)) {
        if (texts->empty() && error)
            *error = "batch mix has no requests";
        return *texts;
    }
    std::vector<std::string> requests;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        std::size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue; // blank line
        std::size_t last = line.find_last_not_of(" \t\r");
        requests.push_back(line.substr(first, last - first + 1));
    }
    if (requests.empty() && error)
        *error = "mix is empty (expected JSONL or a batch document)";
    return requests;
}

bool
runLoadGen(const std::vector<std::string> &requests,
           const LoadGenOptions &opts, LoadGenReport *report,
           std::string *error)
{
    *report = LoadGenReport{};
    if (requests.empty()) {
        if (error)
            *error = "no requests to replay";
        return false;
    }
    std::size_t total = requests.size() * std::max<std::size_t>(
                                              opts.repeat, 1);
    std::size_t workers =
        std::min(std::max<std::size_t>(opts.concurrency, 1), total);

    std::vector<std::string> responses(total);
    std::vector<double> latencies(total, 0.0);
    std::vector<std::string> rids(total);
    // Classify each unique mix entry once; the hot loop then only
    // mints and splices, never parses.
    std::vector<RequestTag> tags;
    if (opts.tagRequestIds) {
        tags.reserve(requests.size());
        for (const std::string &payload : requests)
            tags.push_back(classifyForTagging(payload));
    }
    std::atomic<std::size_t> next{0};
    Clock::time_point start = Clock::now();

    auto replay = [&]() {
        // One persistent connection per worker; TcpShardBackend's
        // timeouts make every round trip bounded.
        TcpShardBackend backend(opts.host, opts.port, opts.timeoutMs);
        while (true) {
            std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= total)
                return;
            if (opts.rate > 0.0) {
                // Open-loop pacing: request i is due at start + i/rate
                // regardless of how long earlier requests took.
                auto due = start + std::chrono::duration_cast<
                                       Clock::duration>(
                               std::chrono::duration<double>(
                                   static_cast<double>(i) / opts.rate));
                std::this_thread::sleep_until(due);
            }
            std::string payload = requests[i % requests.size()];
            if (opts.tagRequestIds) {
                const RequestTag &tag = tags[i % requests.size()];
                if (tag.taggable) {
                    std::string rid = obs::mintRequestId();
                    if (auto tagged =
                            svc::injectRequestId(payload, rid)) {
                        rids[i] = rid;
                        payload = std::move(*tagged);
                    }
                } else {
                    rids[i] = tag.fixed;
                }
            }
            // The client hop of the merged timeline: the span brackets
            // the whole round trip, the flow start binds it to the
            // server-side spans sharing the id. Its duration is the
            // exact latency reported.
            obs::Span span("lg.request", "net", true);
            if (span.active() && !rids[i].empty()) {
                span.arg("rid", rids[i]);
                obs::Tracer::instance().recordFlow("req", "net", 's',
                                                   rids[i]);
            }
            std::string response;
            std::string io_error;
            bool ok = backend.roundTrip(payload, &response, &io_error);
            std::uint64_t ns = span.end();
            latencies[i] = static_cast<double>(ns) / 1e6;
            loadGenMetrics().sent.add(1);
            loadGenMetrics().latencyNs.record(ns);
            if (!ok) {
                responses[i] = "";
                loadGenMetrics().errors.add(1);
                continue;
            }
            responses[i] = response;
        }
    };

    std::vector<std::thread> threads;
    for (std::size_t w = 1; w < workers; ++w)
        threads.emplace_back(replay);
    replay();
    for (std::thread &t : threads)
        t.join();

    double elapsed = std::chrono::duration<double>(Clock::now() - start)
                         .count();

    report->sent = total;
    std::vector<std::string> outcomes(total);
    for (std::size_t i = 0; i < total; ++i) {
        if (responses[i].empty()) {
            ++report->transportFailures;
            ++report->errors;
            outcomes[i] = "transport_failure";
            continue;
        }
        std::string type = svc::responseErrorType(responses[i]);
        if (type.empty()) {
            ++report->ok;
            outcomes[i] = "ok";
            continue;
        }
        ++report->errors;
        outcomes[i] = type;
        if (type == "overloaded") {
            ++report->shed;
            loadGenMetrics().shed.add(1);
        } else if (type == "shard_unavailable") {
            ++report->shardUnavailable;
            loadGenMetrics().shardUnavailable.add(1);
        }
    }

    std::vector<double> sorted = latencies;
    std::sort(sorted.begin(), sorted.end());
    report->p50Ms = exactPercentile(sorted, 50.0);
    report->p95Ms = exactPercentile(sorted, 95.0);
    report->p99Ms = exactPercentile(sorted, 99.0);
    report->maxMs = sorted.empty() ? 0.0 : sorted.back();
    double sum = 0.0;
    for (double ms : sorted)
        sum += ms;
    report->meanMs = sorted.empty()
                         ? 0.0
                         : sum / static_cast<double>(sorted.size());
    report->elapsedSec = elapsed;
    report->achievedRate =
        elapsed > 0.0 ? static_cast<double>(total) / elapsed : 0.0;

    if (!opts.outputPath.empty()) {
        std::ofstream out(opts.outputPath,
                          std::ios::binary | std::ios::trunc);
        // Responses join verbatim: each element is the same byte
        // stream a single-process `hcm batch --results-only` emits.
        JsonWriter json(out);
        svc::writeBatchAnswer(json, total, [&](std::size_t i) {
            json.raw(responses[i]);
        });
        out << "\n";
        if (!out.flush()) {
            if (error)
                *error = "cannot write " + opts.outputPath;
            return false;
        }
    }

    if (!opts.samplesPath.empty()) {
        std::ofstream out(opts.samplesPath,
                          std::ios::binary | std::ios::trunc);
        for (std::size_t i = 0; i < total; ++i) {
            JsonWriter json(out);
            json.beginObject();
            json.kv("index", static_cast<long long>(i));
            json.kv("requestId", rids[i].empty() ? "-" : rids[i]);
            json.kv("latencyMs", latencies[i]);
            json.kv("outcome", outcomes[i]);
            json.endObject();
            out << "\n";
        }
        if (!out.flush()) {
            if (error)
                *error = "cannot write " + opts.samplesPath;
            return false;
        }
    }
    return true;
}

std::string
formatLoadGenReport(const LoadGenReport &report)
{
    std::ostringstream oss;
    {
        JsonWriter json(oss);
        json.beginObject();
        json.kv("sent", static_cast<long long>(report.sent));
        json.kv("ok", static_cast<long long>(report.ok));
        json.kv("errors", static_cast<long long>(report.errors));
        json.kv("shed", static_cast<long long>(report.shed));
        json.kv("shardUnavailable",
                static_cast<long long>(report.shardUnavailable));
        json.kv("transportFailures",
                static_cast<long long>(report.transportFailures));
        json.key("latencyMs");
        json.beginObject();
        json.kv("p50", report.p50Ms);
        json.kv("p95", report.p95Ms);
        json.kv("p99", report.p99Ms);
        json.kv("mean", report.meanMs);
        json.kv("max", report.maxMs);
        json.endObject();
        json.kv("elapsedSec", report.elapsedSec);
        json.kv("achievedRate", report.achievedRate);
        json.endObject();
    }
    oss << "\n";
    return oss.str();
}

} // namespace net
} // namespace hcm
