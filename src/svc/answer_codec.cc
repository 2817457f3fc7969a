#include "answer_codec.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>

#include "core/bounds.hh"
#include "core/organization.hh"
#include "core/scenario.hh"
#include "devices/measured.hh"
#include "itrs/scaling.hh"
#include "svc/query.hh"
#include "util/format.hh"
#include "util/json.hh"
#include "util/logging.hh"

namespace hcm {
namespace svc {
namespace {

constexpr unsigned kFirstToken = 0x80;
/** The byte after this code stands for itself. */
constexpr unsigned kLiteral = 0xDF;
constexpr unsigned kFirstRun = 0xE0;
constexpr std::size_t kMaxTokens = kLiteral - kFirstToken;
constexpr std::size_t kMaxRun = 0x100 - kFirstRun;
/** A shorter run packs to no fewer bytes than its characters. */
constexpr std::size_t kMinRun = 3;
/** Every token fits one slot, so expansion copies a whole slot. */
constexpr std::size_t kSlot = kAnswerExpandSlack;

/** Number characters by nibble; nibble 15 pads an odd-length run. */
constexpr char kNumberChars[16] = "0123456789.-+eE";

/**
 * The answer's schema, stated once: its fixed fragments, in the order
 * packAnswer() writes them. A fragment that may follow either a number
 * or a string comes twice; the second (…Q) starts with the string's
 * closing quote. The names and the row members joined to them follow
 * in the vocabulary (Vocabulary's constructor).
 */
enum Fragment : unsigned {
    // The query echo: success answers open with it, errors end with it.
    kQueryOpen, kWorkload, kF, kScenario, kNode, kDevice, kDeviceQ,
    // Success: the rows, each opening with its organization.
    kRows, kRowsQ, kNoRows, kNoRowsQ, kNextRow, kN, kSpeedup, kLimiter,
    kRowsEnd,
    // Errors: the dispatch keys, then the echo.
    kErrorOpen, kErrorType, kRetryAfter, kRequestId, kRequestIdQ, kEcho,
    kEchoQ, kErrorEnd, kErrorEndQ,
    kFragments
};

constexpr std::string_view kFragmentText[kFragments] = {
    R"({"query":{"type":")",
    R"(","workload":")",
    R"(","f":)",
    R"(,"scenario":")",
    R"(","node":)",
    R"(,"device":")",
    R"(","device":")",
    R"(},"rows":[{"organization":")",
    R"("},"rows":[{"organization":")",
    R"(},"rows":[]})",
    R"("},"rows":[]})",
    R"(},{"organization":")",
    R"(,"n":)",
    R"(,"speedup":)",
    R"(,"limiter":")",
    R"(}]})",
    R"({"error":")",
    R"(","type":")",
    R"(","retryAfterMs":)",
    R"(,"requestId":")",
    R"(","requestId":")",
    R"(,"query":{"type":")",
    R"(","query":{"type":")",
    R"(}})",
    R"("}})",
};

/** The limiters, in enum order. */
constexpr core::Limiter kLimiters[] = {
    core::Limiter::Area, core::Limiter::Power, core::Limiter::Bandwidth,
    core::Limiter::Thermal};

struct Vocabulary
{
    std::vector<std::string> strings;
    /**
     * The index of each group of names, which follow the fragments in
     * registry order: query types, workloads, scenarios, devices and
     * error kinds alone, then a row's organization (by paperIndex),
     * node (by nodeTable() position) and limiter, each joined to the
     * members that follow it.
     */
    unsigned types = 0, workloads = 0, scenarios = 0, devices = 0,
             kinds = 0, orgs = 0, feasible = 0, infeasible = 0, limiters = 0;
    /**
     * What each code below kFirstRun expands to, zero-padded to a whole
     * slot: a literal's own byte, or a vocabulary string.
     */
    std::array<std::array<char, kSlot>, kFirstRun> slots{};
    std::array<std::uint8_t, kFirstRun> slotLen{};
    /** The two characters each byte of a number run expands to. */
    std::array<std::array<char, 2>, 256> pairs{};
    /** Nibble of each number character; 0xFF for any other byte. */
    std::array<std::uint8_t, 256> nibble{};

    Vocabulary();
};

Vocabulary::Vocabulary()
{
    // Append each name of @p registry, joined to @p tail; returns the
    // group's first index.
    auto add = [&](const auto &registry, auto name_of,
                   std::string_view tail = {}) {
        auto first = static_cast<unsigned>(strings.size());
        for (const auto &item : registry)
            strings.push_back(std::string(name_of(item)).append(tail));
        return first;
    };
    auto same = [](std::string_view s) { return s; };
    std::vector<wl::Workload> workload_list = dev::table5Workloads();
    add(kFragmentText, same);
    types = add(allQueryTypes(), queryTypeName);
    workloads = add(workload_list, [](const wl::Workload &w) {
        return w.name();
    });
    scenarios = add(core::allScenarios(),
                    [](const core::Scenario &s) { return s.name; });
    devices = add(dev::allDevices(), dev::deviceName);
    const QueryErrorKind kind_list[] = {
        QueryErrorKind::EvaluationFailed, QueryErrorKind::DeadlineExceeded,
        QueryErrorKind::Overloaded, QueryErrorKind::ShardUnavailable};
    kinds = add(kind_list, queryErrorKindName);
    // Organizations by paperIndex: every workload's paper lines.
    std::vector<std::string> org_names;
    for (const wl::Workload &w : workload_list) {
        for (const core::Organization &org : core::paperOrganizations(w)) {
            auto at = static_cast<std::size_t>(org.paperIndex);
            org_names.resize(std::max(org_names.size(), at + 1));
            org_names[at] = org.name;
        }
    }
    orgs = add(org_names, same, R"(","node":")");
    auto label = [](const itrs::NodeParams &n) { return n.label(); };
    feasible = add(itrs::nodeTable(), label, R"(","feasible":true,"r":)");
    infeasible = add(itrs::nodeTable(), label, R"(","feasible":false)");
    limiters = add(kLimiters, core::limiterName, R"(","energyNormalized":)");

    hcm_assert(strings.size() <= kMaxTokens, "answer vocabulary holds ",
               strings.size(), " strings, more than ", kMaxTokens);
    for (std::size_t i = 0; i < strings.size(); ++i) {
        const std::string &s = strings[i];
        hcm_assert(s.size() <= kSlot, "answer vocabulary string ", s,
                   " does not fit a slot");
        std::memcpy(slots[kFirstToken + i].data(), s.data(), s.size());
        slotLen[kFirstToken + i] = static_cast<std::uint8_t>(s.size());
    }
    for (unsigned c = 0; c < kFirstToken; ++c) {
        slots[c][0] = static_cast<char>(c);
        slotLen[c] = 1;
    }
    nibble.fill(0xFF);
    for (std::uint8_t n = 0; n < 15; ++n)
        nibble[static_cast<unsigned char>(kNumberChars[n])] = n;
    for (std::size_t b = 0; b < 256; ++b)
        pairs[b] = {kNumberChars[b >> 4], kNumberChars[b & 15]};
}

const Vocabulary &
vocabulary()
{
    static const Vocabulary vocab;
    return vocab;
}

/** Bytes of the longest LEB128 varint of a std::size_t. */
constexpr std::size_t kMaxVarint = 10;

/** Write @p v as a LEB128 varint at @p p; returns the end. */
char *
putVarint(std::size_t v, char *p)
{
    while (v >= 0x80) {
        *p++ = static_cast<char>((v & 0x7F) | 0x80);
        v >>= 7;
    }
    *p++ = static_cast<char>(v);
    return p;
}

/** Read a varint at @p p into @p v; returns the byte after it. */
const unsigned char *
getVarint(const unsigned char *p, std::size_t &v)
{
    v = 0;
    for (unsigned shift = 0;; shift += 7) {
        unsigned char b = *p++;
        v |= static_cast<std::size_t>(b & 0x7F) << shift;
        if (b < 0x80)
            return p;
    }
}

/**
 * Codes appended to a string, counting the bytes they expand to. The
 * codes start kMaxVarint bytes in; finish() puts the length header
 * right before them.
 */
struct Packer
{
    const Vocabulary &vocab;
    std::string &out;
    std::size_t start = out.size();
    std::size_t expanded = 0;

    /** Vocabulary string @p index. */
    void
    code(unsigned index)
    {
        out += static_cast<char>(kFirstToken + index);
        expanded += vocab.slotLen[kFirstToken + index];
    }

    void
    literals(std::string_view s)
    {
        for (char c : s) {
            if (static_cast<unsigned char>(c) >= kFirstToken)
                out += static_cast<char>(kLiteral);
            out += c;
        }
        expanded += s.size();
    }

    /** @p s JSON-escaped, as literals. */
    void
    text(std::string_view s)
    {
        if (detail::jsonPlain(s))
            return literals(s);
        std::string escaped;
        detail::appendJsonEscaped(escaped, s);
        literals(escaped);
    }

    /** The string in [@p first, @p end) that reads @p s, else text. */
    void
    name(unsigned first, unsigned end, std::string_view s)
    {
        for (unsigned i = first; i < end; ++i)
            if (vocab.strings[i] == s)
                return code(i);
        text(s);
    }

    /** Number characters @p s, two to a byte behind a run code. */
    void
    run(std::string_view s)
    {
        if (s.size() < kMinRun)
            return literals(s);
        hcm_assert(s.size() <= kMaxRun, "number of ", s.size(),
                   " characters is longer than a run");
        const auto *u = reinterpret_cast<const unsigned char *>(s.data());
        out += static_cast<char>(kFirstRun + s.size() - 1);
        for (std::size_t i = 0; i < s.size(); i += 2) {
            unsigned lo = i + 1 < s.size() ? vocab.nibble[u[i + 1]] : 15;
            out += static_cast<char>(vocab.nibble[u[i]] << 4 | lo);
        }
        expanded += s.size();
    }

    /** @p v as JsonWriter prints a double: "%.12g", or null. */
    void
    number(double v)
    {
        if (!std::isfinite(v))
            return literals("null");
        char buf[kGeneralRoom];
        run({buf, static_cast<std::size_t>(formatGeneral(buf, v, 12) -
                                           buf)});
    }

    /** Put the length header right before the codes. */
    void
    finish()
    {
        char header[kMaxVarint];
        std::size_t head = putVarint(expanded, header) - header;
        char *at = out.data() + start;
        std::memmove(at + head, at + kMaxVarint,
                     out.size() - start - kMaxVarint);
        std::memcpy(at, header, head);
        out.resize(out.size() - (kMaxVarint - head));
    }
};

/** The query echo's members after its opening fragment; returns
 *  whether it ends with a string. */
bool
packEcho(const Query &q, Packer &pack)
{
    const Vocabulary &vocab = pack.vocab;
    pack.code(vocab.types + static_cast<unsigned>(q.type));
    pack.code(kWorkload);
    pack.name(vocab.workloads, vocab.scenarios, q.workload.name());
    pack.code(kF);
    pack.number(q.f);
    pack.code(kScenario);
    pack.name(vocab.scenarios, vocab.devices, q.scenario);
    bool quoted = true;
    if (q.type != QueryType::Projection) {
        pack.code(kNode);
        pack.number(q.node);
        quoted = false;
    }
    if (q.device) {
        pack.code(kDevice + quoted);
        pack.code(vocab.devices + static_cast<unsigned>(*q.device));
        quoted = true;
    }
    return quoted;
}

} // namespace

const std::vector<std::string> &
answerVocabulary()
{
    return vocabulary().strings;
}

void
packAnswer(const QueryResult &result, std::string &out)
{
    const Vocabulary &vocab = vocabulary();
    const Query &q = result.query;
    Packer pack{vocab, out};
    // A feasible row is at most 8 codes and 5 runs of 11 bytes.
    out.reserve(out.size() + 128 + 64 * result.rows.size());
    out.append(kMaxVarint, '\0');
    if (!result.ok()) {
        // Errors lead with the machine-readable fields so line-oriented
        // clients can dispatch on the first keys; the query echo follows
        // for correlation.
        pack.code(kErrorOpen);
        pack.text(result.error);
        pack.code(kErrorType);
        pack.code(vocab.kinds + static_cast<unsigned>(result.errorKind) - 1);
        bool quoted = true;
        if (result.retryAfterMs > 0) {
            pack.code(kRetryAfter);
            // As JsonWriter prints an unsigned count.
            char digits[24];
            auto [end, ec] = std::to_chars(
                digits, digits + sizeof digits,
                static_cast<long long>(result.retryAfterMs));
            pack.run({digits, static_cast<std::size_t>(end - digits)});
            quoted = false;
        }
        // After the dispatch keys, before the echo: clients that sent
        // an id can join the failure to their own records. Success
        // responses never carry the id — cache hits replay bytes to
        // requests with different ids.
        if (q.requestIdEcho && !q.requestId.empty()) {
            pack.code(kRequestId + quoted);
            pack.text(q.requestId);
            quoted = true;
        }
        pack.code(kEcho + quoted);
        pack.code(kErrorEnd + packEcho(q, pack));
        pack.finish();
        return;
    }
    pack.code(kQueryOpen);
    bool quoted = packEcho(q, pack);
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
        const ResultRow &row = result.rows[i];
        pack.code(i == 0 ? kRows + quoted : kNextRow);
        pack.code(vocab.orgs + row.org);
        if (!row.feasible) {
            pack.code(vocab.infeasible + row.node);
            continue;
        }
        pack.code(vocab.feasible + row.node);
        pack.number(row.r);
        pack.code(kN);
        pack.number(row.n);
        pack.code(kSpeedup);
        pack.number(row.speedup);
        pack.code(kLimiter);
        pack.code(vocab.limiters + static_cast<unsigned>(row.limiter));
        pack.number(row.energyNormalized);
    }
    pack.code(result.rows.empty() ? kNoRows + quoted : kRowsEnd);
    pack.finish();
}

std::size_t
expandedSize(std::string_view packed)
{
    if (packed.empty())
        return 0;
    std::size_t len;
    getVarint(reinterpret_cast<const unsigned char *>(packed.data()), len);
    return len;
}

char *
expandAnswer(std::string_view packed, char *dst)
{
    if (packed.empty())
        return dst;
    const auto *in = reinterpret_cast<const unsigned char *>(packed.data());
    const unsigned char *end = in + packed.size();
    std::size_t len;
    in = getVarint(in, len);
    const Vocabulary &vocab = vocabulary();
    char *p = dst;
    while (in < end) {
        unsigned c = *in++;
        if (c < kLiteral) {
            // A literal or a vocabulary string, copied as a whole slot:
            // the bytes past it are overwritten by the codes that
            // follow, or fall in the slack.
            std::memcpy(p, vocab.slots[c].data(), kSlot);
            p += vocab.slotLen[c];
            continue;
        }
        if (c == kLiteral) {
            *p++ = static_cast<char>(*in++);
            continue;
        }
        std::size_t run = c - kFirstRun + 1;
        std::size_t bytes = (run + 1) / 2;
        std::size_t k = 0;
        if (end - in >= 8) {
            // Eight pairs at once, whatever the run's length, cover
            // most numbers; the slack takes what lies past the run.
            for (; k < 8; ++k)
                std::memcpy(p + 2 * k, vocab.pairs[in[k]].data(), 2);
        }
        for (; k < bytes; ++k)
            std::memcpy(p + 2 * k, vocab.pairs[in[k]].data(), 2);
        in += bytes;
        p += run;
    }
    hcm_assert(p == dst + len, "packed answer expanded to ", p - dst,
               " bytes, header says ", len);
    return p;
}

void
appendExpanded(std::string_view packed, std::string &out)
{
    std::size_t start = out.size();
    std::size_t len = expandedSize(packed);
    out.resize(start + len + kAnswerExpandSlack);
    expandAnswer(packed, out.data() + start);
    out.resize(start + len);
}

} // namespace svc
} // namespace hcm
