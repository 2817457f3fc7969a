#include "answer_codec.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>

#include "core/bounds.hh"
#include "core/organization.hh"
#include "core/scenario.hh"
#include "devices/measured.hh"
#include "itrs/scaling.hh"
#include "svc/query.hh"
#include "util/logging.hh"

namespace hcm {
namespace svc {
namespace {

constexpr unsigned char kModeRaw = 0;
constexpr unsigned char kModePacked = 1;

constexpr unsigned kFirstToken = 0x80;
constexpr unsigned kFirstRun = 0xE0;
constexpr std::size_t kMaxTokens = kFirstRun - kFirstToken;
constexpr std::size_t kMaxRun = 0x100 - kFirstRun;
/** A shorter run packs to no fewer bytes than its characters. */
constexpr std::size_t kMinRun = 3;
/** Every token fits one slot, so expansion copies a whole slot. */
constexpr std::size_t kSlot = kAnswerExpandSlack;

/** Number characters by nibble; nibble 15 pads an odd-length run. */
constexpr char kNumberChars[16] = "0123456789.-+eE";

/**
 * The fixed text between values, as QueryResult::writeJson() emits it:
 * the query echo, each row's members, and an error's dispatch keys.
 * Longest-first matching picks the longer variants when they apply.
 */
constexpr std::string_view kPunctuation[] = {
    R"({"query":{"type":")",
    R"(","workload":")",
    R"(","f":)",
    R"(,"scenario":")",
    R"(","node":)",
    R"(,"device":")",
    R"(","device":")",
    R"("},"rows":[{"organization":")",
    R"(},"rows":[{"organization":")",
    R"("},"rows":[)",
    R"(},"rows":[)",
    R"(},{"organization":")",
    R"(false},{"organization":")",
    R"(","node":")",
    R"(","feasible":)",
    R"(true,"r":)",
    R"(false})",
    R"(,"n":)",
    R"(,"speedup":)",
    R"(,"limiter":")",
    R"(","energyNormalized":)",
    R"(}]})",
    R"(]})",
    R"({"error":")",
    R"(","type":")",
    R"(","retryAfterMs":)",
    R"(,"requestId":")",
    R"(","requestId":")",
    R"(,"query":{"type":")",
    R"(","query":{"type":")",
};

/**
 * A token of at least kKeyBytes is looked up by its first kKeyBytes,
 * hashed into one of kBuckets; few tokens share a bucket. The shorter
 * ones (a few names and closers) are tried in turn after that.
 */
constexpr std::size_t kKeyBytes = 4;
constexpr std::size_t kBuckets = 256;

std::uint32_t
load32(const char *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

std::size_t
bucketOf(std::uint32_t key)
{
    return (key * 0x9E3779B1u) >> 24;
}

struct Vocabulary
{
    std::vector<std::string> strings;
    /**
     * What each code below kFirstRun expands to, zero-padded to a whole
     * slot: a literal's own byte, or a vocabulary string.
     */
    std::array<std::array<char, kSlot>, kFirstRun> slots{};
    std::array<std::uint8_t, kFirstRun> slotLen{};
    /** Per vocabulary string, per 8-byte word of its slot, its bits. */
    std::array<std::array<std::uint64_t, kSlot / 8>, kMaxTokens> masks{};
    /** Long token indices by bucket, longest first within a bucket. */
    std::vector<std::uint8_t> order;
    std::array<std::uint16_t, kBuckets + 1> bucketBegin{};
    /** Short token indices, longest first. */
    std::vector<std::uint8_t> shortTokens;
    /** Whether some short token starts with the byte. */
    std::array<bool, 256> shortFirst{};
    /** The two characters each byte of a number run expands to. */
    std::array<std::array<char, 2>, 256> pairs{};
    /** Nibble of each number character; 0xFF for any other byte. */
    std::array<std::uint8_t, 256> nibble{};

    Vocabulary();
    void add(std::string_view s);
    /** Whether string @p t is a prefix of the @p avail bytes at @p s. */
    bool tokenAt(std::size_t t, const char *s, std::size_t avail) const;
    /** The longest string prefixing the @p avail bytes at @p s, or -1. */
    int match(const char *s, std::size_t avail) const;
};

void
Vocabulary::add(std::string_view s)
{
    // A string that does not fit a slot or the codes, or that a code
    // could not stand for, is left out: the codec stays lossless, it
    // only packs that text as literals.
    bool ascii = std::all_of(s.begin(), s.end(), [](char c) {
        return static_cast<unsigned char>(c) < kFirstToken;
    });
    if (s.size() < 2 || s.size() > kSlot || !ascii ||
        strings.size() == kMaxTokens ||
        std::find(strings.begin(), strings.end(), s) != strings.end())
        return;
    strings.emplace_back(s);
}

Vocabulary::Vocabulary()
{
    for (std::string_view p : kPunctuation)
        add(p);
    // The query echo's names.
    for (QueryType t : allQueryTypes())
        add(queryTypeName(t));
    std::vector<wl::Workload> workloads = dev::table5Workloads();
    for (const wl::Workload &w : workloads)
        add(w.name());
    for (const core::Scenario &s : core::allScenarios())
        add(s.name);
    for (dev::DeviceId id : dev::allDevices())
        add(dev::deviceName(id));
    // A row's names with the members that always follow them, so a
    // row takes a few codes fewer.
    const std::vector<core::Limiter> limiters = {
        core::Limiter::Area, core::Limiter::Power, core::Limiter::Bandwidth,
        core::Limiter::Thermal};
    for (const wl::Workload &w : workloads)
        for (const core::Organization &org : core::paperOrganizations(w))
            add(org.name + R"(","node":")");
    for (const std::string &label : itrs::nodeLabels()) {
        add(label + R"(","feasible":true,"r":)");
        add(label + R"(","feasible":false})");
    }
    for (core::Limiter l : limiters)
        add(core::limiterName(l) + R"(","energyNormalized":)");
    // The same names alone, for rows the composites miss.
    for (const wl::Workload &w : workloads)
        for (const core::Organization &org : core::paperOrganizations(w))
            add(org.name);
    for (const std::string &label : itrs::nodeLabels())
        add(label);
    for (core::Limiter l : limiters)
        add(core::limiterName(l));

    std::vector<std::vector<std::uint8_t>> buckets(kBuckets);
    for (std::size_t i = 0; i < strings.size(); ++i) {
        const std::string &s = strings[i];
        std::memcpy(slots[kFirstToken + i].data(), s.data(), s.size());
        slotLen[kFirstToken + i] = static_cast<std::uint8_t>(s.size());
        for (std::size_t w = 0; 8 * w < s.size(); ++w) {
            std::size_t rest = s.size() - 8 * w;
            masks[i][w] = rest >= 8 ? ~std::uint64_t{0}
                                    : (std::uint64_t{1} << (8 * rest)) - 1;
        }
        auto index = static_cast<std::uint8_t>(i);
        if (s.size() >= kKeyBytes) {
            buckets[bucketOf(load32(s.data()))].push_back(index);
        } else {
            shortTokens.push_back(index);
            shortFirst[static_cast<unsigned char>(s[0])] = true;
        }
    }
    for (unsigned c = 0; c < kFirstToken; ++c) {
        slots[c][0] = static_cast<char>(c);
        slotLen[c] = 1;
    }
    auto longest_first = [&](std::uint8_t x, std::uint8_t y) {
        return strings[x].size() > strings[y].size();
    };
    for (std::size_t b = 0; b < kBuckets; ++b) {
        std::stable_sort(buckets[b].begin(), buckets[b].end(),
                         longest_first);
        bucketBegin[b] = static_cast<std::uint16_t>(order.size());
        order.insert(order.end(), buckets[b].begin(), buckets[b].end());
    }
    bucketBegin[kBuckets] = static_cast<std::uint16_t>(order.size());
    std::stable_sort(shortTokens.begin(), shortTokens.end(), longest_first);

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

std::uint64_t
load64(const char *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

bool
Vocabulary::tokenAt(std::size_t t, const char *s, std::size_t avail) const
{
    const char *bytes = slots[kFirstToken + t].data();
    std::size_t len = slotLen[kFirstToken + t];
    if (len > avail)
        return false;
    if constexpr (std::endian::native == std::endian::little) {
        if (avail >= kSlot) {
            // A whole slot is readable: compare every little-endian
            // word under the string's masks, with no branch on its
            // length.
            std::uint64_t diff = 0;
            for (std::size_t w = 0; w < kSlot / 8; ++w)
                diff |= (load64(s + 8 * w) ^ load64(bytes + 8 * w)) &
                        masks[t][w];
            return diff == 0;
        }
    }
    return std::memcmp(s, bytes, len) == 0;
}

int
Vocabulary::match(const char *s, std::size_t avail) const
{
    if (avail >= kKeyBytes) {
        std::size_t b = bucketOf(load32(s));
        for (std::size_t k = bucketBegin[b]; k < bucketBegin[b + 1]; ++k)
            if (tokenAt(order[k], s, avail))
                return order[k];
    }
    if (!shortFirst[static_cast<unsigned char>(*s)])
        return -1;
    for (std::uint8_t t : shortTokens)
        if (tokenAt(t, s, avail))
            return t;
    return -1;
}

/**
 * Pack the number characters that start @p u, at most @p limit, two to
 * a byte at @p q; returns how many. A pair is checked with one branch.
 */
std::size_t
packRun(const Vocabulary &vocab, const unsigned char *u, std::size_t limit,
        char *q)
{
    const std::array<std::uint8_t, 256> &nibble = vocab.nibble;
    std::size_t run = 0;
    for (; run + 2 <= limit; run += 2) {
        unsigned hi = nibble[u[run]];
        unsigned lo = nibble[u[run + 1]];
        if ((hi | lo) > 15)
            break;
        q[run / 2] = static_cast<char>(hi << 4 | lo);
    }
    if (run < limit && nibble[u[run]] != 0xFF) {
        q[run / 2] = static_cast<char>(nibble[u[run]] << 4 | 15);
        ++run;
    }
    return run;
}

} // namespace

const std::vector<std::string> &
answerVocabulary()
{
    return vocabulary().strings;
}

void
packAnswer(std::string_view text, std::string &out)
{
    const Vocabulary &vocab = vocabulary();
    std::size_t start = out.size();
    // Packed codes never outnumber the bytes they stand for: a token
    // is at least two bytes and a run at least kMinRun characters. Two
    // bytes more hold the scratch of a short run at the very end.
    out.resize(start + 1 + kMaxVarint + text.size() + 2);
    char *head = out.data() + start;
    *head = static_cast<char>(kModePacked);
    char *body = putVarint(text.size(), head + 1);
    char *p = body;
    const char *s = text.data();
    std::size_t n = text.size();
    bool raw = false;
    for (std::size_t i = 0; i < n;) {
        unsigned char c = static_cast<unsigned char>(s[i]);
        if (c >= kFirstToken) {
            raw = true;
            break;
        }
        std::size_t avail = n - i;
        // A number first: no token starts with three number characters.
        // The run is packed behind its code byte before it is known to
        // be long enough; a short one is overwritten.
        if (vocab.nibble[c] != 0xFF) {
            std::size_t run =
                packRun(vocab, reinterpret_cast<const unsigned char *>(s + i),
                        std::min(avail, kMaxRun), p + 1);
            if (run >= kMinRun) {
                *p = static_cast<char>(kFirstRun + run - 1);
                p += 1 + (run + 1) / 2;
                i += run;
                continue;
            }
        }
        if (int t = vocab.match(s + i, avail); t >= 0) {
            *p++ = static_cast<char>(kFirstToken + t);
            i += vocab.slotLen[kFirstToken + t];
            continue;
        }
        *p++ = static_cast<char>(c);
        ++i;
    }
    if (raw || static_cast<std::size_t>(p - body) >= n) {
        // Stored as is: the body is the text itself.
        *head = static_cast<char>(kModeRaw);
        std::memcpy(body, s, n);
        p = body + n;
    }
    out.resize(static_cast<std::size_t>(p - out.data()));
}

std::size_t
expandedSize(std::string_view packed)
{
    if (packed.empty())
        return 0;
    std::size_t len;
    getVarint(reinterpret_cast<const unsigned char *>(packed.data()) + 1,
              len);
    return len;
}

char *
expandAnswer(std::string_view packed, char *dst)
{
    if (packed.empty())
        return dst;
    const auto *in = reinterpret_cast<const unsigned char *>(packed.data());
    const unsigned char *end = in + packed.size();
    unsigned char mode = *in;
    std::size_t len;
    in = getVarint(in + 1, len);
    if (mode == kModeRaw) {
        std::memcpy(dst, in, len);
        return dst + len;
    }
    const Vocabulary &vocab = vocabulary();
    char *p = dst;
    while (in < end) {
        unsigned c = *in++;
        if (c < kFirstRun) {
            // A literal or a vocabulary string, copied as a whole slot:
            // the bytes past it are overwritten by the codes that
            // follow, or fall in the slack.
            std::memcpy(p, vocab.slots[c].data(), kSlot);
            p += vocab.slotLen[c];
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
