#include "answer_codec.hh"

#include <algorithm>
#include <array>
#include <bit>
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
/** Open a row record: the first row, and a row after a comma. */
constexpr unsigned kRowCode = 0xDD;
constexpr unsigned kNextRowCode = 0xDE;
/** The byte after this code stands for itself. */
constexpr unsigned kLiteral = 0xDF;
constexpr std::size_t kMaxTokens = kRowCode - kFirstToken;
/** Every token fits one slot, so expansion copies a whole slot. */
constexpr std::size_t kSlot = kAnswerExpandSlack;

/**
 * A number: a "%.12g" number is its sign, its significant digits
 * (trailing zeros dropped) and its decimal exponent x, the power of ten
 * of its first digit. One header byte says which, and the digits
 * follow two to a byte, low nibble first:
 *
 *  - below kSmallInt: (x - kMinCompactX) << 4 | digits - 1, for a
 *    number of 0 or more with x from -4 to 5;
 *  - kSmallInt + v: the integer v, below kSmallInts, with no digits;
 *  - kWide + kMaxDigits * negative + digits - 1: any other, then
 *    x + kExponentBias in two bytes, low first;
 *  - kNullNumber: not finite, null.
 */
constexpr unsigned kMaxDigits = 12;
constexpr int kMinCompactX = -4;
constexpr unsigned kSmallInt = 10 << 4;
constexpr unsigned kSmallInts = 64;
constexpr unsigned kWide = kSmallInt + kSmallInts;
constexpr int kExponentBias = 512;
constexpr unsigned kNullNumber = kWide + 2 * kMaxDigits;
static_assert(kNullNumber < 0x100);

/**
 * The answer's schema, stated once: its fixed fragments, in the order
 * packAnswer() writes them. A fragment that may follow either a number
 * or a string comes twice; the second (…Q) starts with the string's
 * closing quote. The names follow in the vocabulary (Vocabulary's
 * constructor); the rows' members are kRowText.
 */
enum Fragment : unsigned {
    // The query echo: success answers open with it, errors end with it.
    kQueryOpen, kWorkload, kF, kScenario, kNode, kDevice, kDeviceQ,
    // Success: the rows, each one row record.
    kRows, kRowsQ, kNoRows, kNoRowsQ, kRowsEnd,
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
    R"(},"rows":[)",
    R"("},"rows":[)",
    R"(},"rows":[]})",
    R"("},"rows":[]})",
    R"(]})",
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

/**
 * A row's members around its organization, node and limiter names and
 * its four numbers, in the order they are written.
 */
enum RowPart : unsigned {
    kRowOrg, kRowNode, kRowFeasible, kRowInfeasible, kRowN, kRowSpeedup,
    kRowLimiter, kRowEnergy, kRowEnd,
    kRowParts
};

constexpr std::string_view kRowText[kRowParts] = {
    R"({"organization":")",
    R"(","node":")",
    R"(","feasible":true,"r":)",
    R"(","feasible":false})",
    R"(,"n":)",
    R"(,"speedup":)",
    R"(,"limiter":")",
    R"(","energyNormalized":)",
    R"(})",
};

/** The limiters, in enum order. */
constexpr core::Limiter kLimiters[] = {
    core::Limiter::Area, core::Limiter::Power, core::Limiter::Bandwidth,
    core::Limiter::Thermal};
constexpr unsigned kLimiterCount = std::size(kLimiters);

/** A row's text up to its first number, or all of it when it is not
 *  feasible; and a limiter's, up to energyNormalized. */
constexpr std::size_t kRowSlot = 64;

struct RowSlot
{
    std::array<char, kRowSlot> text{};
    std::uint8_t len = 0;
    bool feasible = false;
    std::uint8_t limiter = 0;
};

struct Vocabulary
{
    std::vector<std::string> strings;
    /**
     * The index of each group of names, which follow the fragments in
     * registry order: query types, workloads, scenarios, devices and
     * error kinds.
     */
    unsigned types = 0, workloads = 0, scenarios = 0, devices = 0,
             kinds = 0;
    /**
     * What each code below kRowCode expands to, zero-padded to a whole
     * slot: a literal's own byte, or a vocabulary string.
     */
    std::array<std::array<char, kSlot>, kRowCode> slots{};
    std::array<std::uint8_t, kRowCode> slotLen{};
    /** Codes a number follows (the echo's f and node). */
    std::array<bool, kRowCode> numberAfter{};
    /**
     * A row record's opening, by its index byte: (organization by
     * paperIndex * nodes + node by nodeTable() position) * 5 + the
     * limiter, or 4 when the row is not feasible.
     */
    unsigned orgCount = 0, nodeCount = 0;
    std::array<RowSlot, 256> rows{};
    /** Each limiter's part of a row, from its key to energyNormalized's. */
    std::array<RowSlot, kLimiterCount> limiters{};

    Vocabulary();

    unsigned
    rowIndex(const ResultRow &row) const
    {
        return (row.org * nodeCount + row.node) * (kLimiterCount + 1) +
               (row.feasible ? static_cast<unsigned>(row.limiter)
                             : kLimiterCount);
    }
};

/** @p slot holds @p text; every copy of a whole slot then writes at
 *  most kAnswerExpandSlack bytes past the text. */
void
fill(RowSlot &slot, const std::string &text)
{
    hcm_assert(text.size() <= kRowSlot &&
                   kRowSlot - text.size() <= kAnswerExpandSlack,
               "row text ", text, " does not fit its slot");
    std::memcpy(slot.text.data(), text.data(), text.size());
    slot.len = static_cast<std::uint8_t>(text.size());
}

Vocabulary::Vocabulary()
{
    // Append each name of @p registry; returns the group's first index.
    auto add = [&](const auto &registry, auto name_of) {
        auto first = static_cast<unsigned>(strings.size());
        for (const auto &item : registry)
            strings.emplace_back(name_of(item));
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
    numberAfter[kFirstToken + kF] = numberAfter[kFirstToken + kNode] = true;

    // Organizations by paperIndex: every workload's paper lines.
    std::vector<std::string> org_names;
    for (const wl::Workload &w : workload_list) {
        for (const core::Organization &org : core::paperOrganizations(w)) {
            auto at = static_cast<std::size_t>(org.paperIndex);
            org_names.resize(std::max(org_names.size(), at + 1));
            org_names[at] = org.name;
        }
    }
    const std::vector<itrs::NodeParams> &nodes = itrs::nodeTable();
    orgCount = static_cast<unsigned>(org_names.size());
    nodeCount = static_cast<unsigned>(nodes.size());
    hcm_assert(orgCount * nodeCount * (kLimiterCount + 1) <= rows.size(),
               orgCount, " organizations at ", nodeCount,
               " nodes do not fit a row index byte");
    ResultRow row;
    for (row.org = 0; row.org < orgCount; ++row.org) {
        for (row.node = 0; row.node < nodeCount; ++row.node) {
            std::string head = std::string(kRowText[kRowOrg])
                                   .append(org_names[row.org])
                                   .append(kRowText[kRowNode])
                                   .append(nodes[row.node].label());
            row.feasible = false;
            fill(rows[rowIndex(row)],
                 head + std::string(kRowText[kRowInfeasible]));
            row.feasible = true;
            for (unsigned l = 0; l < kLimiterCount; ++l) {
                row.limiter = kLimiters[l];
                RowSlot &slot = rows[rowIndex(row)];
                fill(slot, head + std::string(kRowText[kRowFeasible]));
                slot.feasible = true;
                slot.limiter = static_cast<std::uint8_t>(l);
            }
        }
    }
    for (unsigned l = 0; l < kLimiterCount; ++l)
        fill(limiters[l], std::string(kRowText[kRowLimiter])
                              .append(core::limiterName(kLimiters[l]))
                              .append(kRowText[kRowEnergy]));
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

    /**
     * @p v as JsonWriter prints a double ("%.12g", or null), as a
     * number header and its digits: the sign, digits and exponent read
     * back from formatGeneral()'s text.
     */
    void
    number(double v)
    {
        if (!std::isfinite(v)) {
            out += static_cast<char>(kNullNumber);
            expanded += 4;
            return;
        }
        char text[kGeneralRoom];
        const char *end = formatGeneral(text, v, 12);
        expanded += static_cast<std::size_t>(end - text);
        if (end - text <= 2 && *text != '-') {
            // Unsigned and at most two characters: "0" to "99".
            unsigned value = static_cast<unsigned>(text[0] - '0');
            if (end - text == 2)
                value = 10 * value + static_cast<unsigned>(text[1] - '0');
            if (value < kSmallInts) {
                out += static_cast<char>(kSmallInt + value);
                return;
            }
        }
        const char *s = text;
        bool negative = *s == '-';
        s += negative;
        // The mantissa's digits without its point; x is the power of
        // ten of the first: the digits before the point, less one, plus
        // the exponent after 'e'.
        char digits[kGeneralRoom];
        int count = 0;
        int point = -1;
        for (; s < end && *s != 'e'; ++s) {
            if (*s == '.')
                point = count;
            else
                digits[count++] = *s;
        }
        int x = (point < 0 ? count : point) - 1;
        if (s < end) {
            // "e", its sign, two or three digits.
            int e = 0;
            for (const char *c = s + 2; c < end; ++c)
                e = e * 10 + (*c - '0');
            x += s[1] == '-' ? -e : e;
        }
        // Drop leading zeros (each lowers x) and trailing ones; zero
        // keeps one digit.
        const char *first = digits;
        const char *last = digits + count;
        while (last - first > 1 && *first == '0') {
            ++first;
            --x;
        }
        while (last - first > 1 && last[-1] == '0')
            --last;
        auto n = static_cast<unsigned>(last - first);
        hcm_assert(n <= kMaxDigits, "number ", std::string_view(text, end),
                   " has more than ", kMaxDigits, " digits");
        char code[3 + kMaxDigits / 2];
        char *c = code;
        if (!negative && x >= kMinCompactX && x < kMinCompactX + 10) {
            *c++ = static_cast<char>(
                static_cast<unsigned>(x - kMinCompactX) << 4 | (n - 1));
        } else {
            auto biased = static_cast<unsigned>(x + kExponentBias);
            *c++ = static_cast<char>(kWide + kMaxDigits * negative + n - 1);
            *c++ = static_cast<char>(biased & 0xFF);
            *c++ = static_cast<char>(biased >> 8);
        }
        for (unsigned i = 0; i < n; i += 2) {
            unsigned hi = i + 1 < n ? static_cast<unsigned>(first[i + 1] - '0')
                                    : 0;
            *c++ = static_cast<char>(
                hi << 4 | static_cast<unsigned>(first[i] - '0'));
        }
        out.append(code, static_cast<std::size_t>(c - code));
    }

    /** @p row as one row record, after a comma unless it is @p first. */
    void
    row(const ResultRow &row, bool first)
    {
        hcm_assert(row.org < vocab.orgCount && row.node < vocab.nodeCount,
                   "row of organization ", int(row.org), " at node ",
                   int(row.node), " is outside the schema");
        out += static_cast<char>(first ? kRowCode : kNextRowCode);
        unsigned index = vocab.rowIndex(row);
        out += static_cast<char>(index);
        expanded += !first + vocab.rows[index].len;
        if (!row.feasible)
            return;
        number(row.r);
        number(row.n);
        number(row.speedup);
        number(row.energyNormalized);
        expanded += kRowText[kRowN].size() + kRowText[kRowSpeedup].size() +
                    vocab.limiters[vocab.rows[index].limiter].len +
                    kRowText[kRowEnd].size();
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

/** Each small integer's one or two digits, as it prints. */
constexpr auto kSmallIntText = [] {
    std::array<std::array<char, 2>, kSmallInts> table{};
    for (unsigned i = 0; i < kSmallInts; ++i)
        table[i] = {static_cast<char>('0' + (i < 10 ? i : i / 10)),
                    static_cast<char>(i < 10 ? 0 : '0' + i % 10)};
    return table;
}();

/**
 * Where "%.12g" puts n significant digits of a number whose exponent is
 * x. From -4 to 11 it is fixed: the digits start after "0." and -x - 1
 * zeros below 1, and the point falls after x + 1 of them; an integer's
 * point, and a number below 1's, falls at the text's end. Otherwise it
 * is scientific, the point after the first digit and len the
 * mantissa's length.
 */
struct NumberForm
{
    std::uint8_t digits = 0, start = 0, point = 0, len = 0;
};

constexpr NumberForm
numberForm(int n, int x)
{
    NumberForm form;
    form.digits = static_cast<std::uint8_t>(n);
    if (x < kMinCompactX || x >= static_cast<int>(kMaxDigits)) {
        // Scientific: the mantissa d[.ddd], its exponent after it.
        form.point = 1;
        form.len = static_cast<std::uint8_t>(n > 1 ? n + 1 : 1);
    } else if (x < 0) {
        form.start = static_cast<std::uint8_t>(1 - x);
        form.point = static_cast<std::uint8_t>(n);
        form.len = static_cast<std::uint8_t>(1 - x + n);
    } else {
        form.point = static_cast<std::uint8_t>(x + 1);
        form.len = static_cast<std::uint8_t>(n > x + 1 ? n + 1 : x + 1);
    }
    return form;
}

/** The form of each compact header. */
constexpr auto kCompactForms = [] {
    std::array<NumberForm, kSmallInt> table{};
    for (unsigned h = 0; h < kSmallInt; ++h)
        table[h] = numberForm(static_cast<int>(h & 15) + 1,
                             static_cast<int>(h >> 4) + kMinCompactX);
    return table;
}();

/** 16 bytes of text as two words, byte i of each in bits 8i to 8i + 7. */
struct Text16
{
    std::uint64_t lo = 0, hi = 0;
};

/**
 * By a place k in the 16 bytes, 0 to 12: the bytes before it, those
 * after it, and '.' at it.
 */
struct PlaceMasks
{
    Text16 before, after, dot;
};

constexpr auto kPlaceMasks = [] {
    auto ones = [](int bytes) {
        return bytes <= 0   ? std::uint64_t{0}
               : bytes >= 8 ? ~std::uint64_t{0}
                            : (std::uint64_t{1} << 8 * bytes) - 1;
    };
    constexpr std::uint64_t kDots = 0x2E2E2E2E2E2E2E2E;
    std::array<PlaceMasks, kMaxDigits + 1> table{};
    for (int k = 0; k <= static_cast<int>(kMaxDigits); ++k) {
        Text16 before = {ones(k), ones(k - 8)};
        Text16 through = {ones(k + 1), ones(k - 7)};
        table[k] = {before,
                    {~through.lo, ~through.hi},
                    {(before.lo ^ through.lo) & kDots,
                     (before.hi ^ through.hi) & kDots}};
    }
    return table;
}();

/** The 8 digits in 4 bytes, two to a byte, low nibble first. */
constexpr std::uint64_t
spreadDigits(std::uint64_t x)
{
    x = (x | x << 16) & 0x0000FFFF0000FFFF;
    x = (x | x << 8) & 0x00FF00FF00FF00FF;
    return (x & 0x000F000F000F000F) | (x & 0x00F000F000F000F0) << 4;
}

/**
 * Store at @p dst 16 bytes of a number's text, or of a scientific
 * number's mantissa: of the @p n digits at @p digits, two to a byte,
 * low nibble first, with zeros after them, those before @p point, '.',
 * then the rest one place on. @p readable bytes of input follow
 * @p digits. The digits spread to bytes, cleared from the nth on, plus
 * '0'; then each byte keeps its digit, takes the one a place back, or
 * is the point.
 */
inline void
storeFixed(char *dst, const unsigned char *digits, std::ptrdiff_t readable,
           int n, int point)
{
    static_assert(std::endian::native == std::endian::little,
                  "a word's low byte is the text's first");
    std::uint64_t packed = 0;
    if (readable >= 8)
        std::memcpy(&packed, digits, 8);
    else
        for (int i = 0; i < (n + 1) / 2; ++i)
            packed |= std::uint64_t{digits[i]} << 8 * i;
    constexpr std::uint64_t kZeros = 0x3030303030303030;
    const Text16 &digit = kPlaceMasks[n].before;
    std::uint64_t lo = (spreadDigits(packed & 0xFFFFFFFF) & digit.lo) | kZeros;
    std::uint64_t hi = (spreadDigits(packed >> 32) & digit.hi) | kZeros;
    const PlaceMasks &at = kPlaceMasks[point];
    Text16 text = {
        (lo & at.before.lo) | (lo << 8 & at.after.lo) | at.dot.lo,
        (hi & at.before.hi) | ((hi << 8 | lo >> 56) & at.after.hi) |
            at.dot.hi};
    std::memcpy(dst, &text.lo, 8);
    std::memcpy(dst + 8, &text.hi, 8);
}

/**
 * Write the number whose header is at @p in at @p p, as "%.12g" lays
 * it out; @p in moves past it. Returns the end. No store reaches more
 * than 16 bytes past the number. Always inlined: the row records call
 * it four times, and @p in then stays in a register.
 */
[[gnu::always_inline]] inline char *
expandNumber(const unsigned char *&in, const unsigned char *end, char *p)
{
    unsigned h = *in++;
    NumberForm form;
    int x = 0;
    if (h < kSmallInt) {
        form = kCompactForms[h];
    } else if (h < kWide) {
        unsigned v = h - kSmallInt;
        std::memcpy(p, kSmallIntText[v].data(), 2);
        return p + 1 + (v >= 10);
    } else if (h < kNullNumber) {
        h -= kWide;
        if (h >= kMaxDigits)
            *p++ = '-';
        x = (in[0] | in[1] << 8) - kExponentBias;
        in += 2;
        form = numberForm(static_cast<int>(h % kMaxDigits) + 1, x);
    } else {
        std::memcpy(p, "null", 4);
        return p + 4;
    }
    const unsigned char *digits = in;
    const int n = form.digits;
    in += (n + 1) / 2;
    // "0.000000", which the digits overwrite unless the number is below
    // 1 and they start past it.
    std::memcpy(p, "0.000000", 8);
    storeFixed(p + form.start, digits, end - digits, n, form.point);
    p += form.len;
    if (x >= kMinCompactX && x < static_cast<int>(kMaxDigits))
        return p;
    // Scientific, from wide headers only: e±XX, three exponent digits
    // from 100.
    unsigned ax = static_cast<unsigned>(x < 0 ? -x : x);
    p[0] = 'e';
    p[1] = x < 0 ? '-' : '+';
    p += 2;
    if (ax >= 100) {
        *p++ = static_cast<char>('0' + ax / 100);
        ax %= 100;
    }
    p[0] = static_cast<char>('0' + ax / 10);
    p[1] = static_cast<char>('0' + ax % 10);
    return p + 2;
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
    // A feasible row is 2 codes and 4 numbers of at most 9 bytes.
    out.reserve(out.size() + 128 + 40 * result.rows.size());
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
            pack.literals({digits, static_cast<std::size_t>(end - digits)});
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
    if (result.rows.empty()) {
        pack.code(kNoRows + quoted);
    } else {
        pack.code(kRows + quoted);
        for (std::size_t i = 0; i < result.rows.size(); ++i)
            pack.row(result.rows[i], i == 0);
        pack.code(kRowsEnd);
    }
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
        if (c < kRowCode) {
            // A literal or a vocabulary string, copied as a whole slot:
            // the bytes past it are overwritten by the codes that
            // follow, or fall in the slack.
            std::memcpy(p, vocab.slots[c].data(), kSlot);
            p += vocab.slotLen[c];
            if (vocab.numberAfter[c])
                p = expandNumber(in, end, p);
            continue;
        }
        if (c < kLiteral) {
            // A row record: its opening and limiter are whole row slots.
            if (c == kNextRowCode)
                *p++ = ',';
            const RowSlot &row = vocab.rows[*in++];
            std::memcpy(p, row.text.data(), kRowSlot);
            p += row.len;
            if (!row.feasible)
                continue;
            auto put = [](char *at, std::string_view part) {
                std::memcpy(at, part.data(), part.size());
                return at + part.size();
            };
            p = expandNumber(in, end, p);
            p = expandNumber(in, end, put(p, kRowText[kRowN]));
            p = expandNumber(in, end, put(p, kRowText[kRowSpeedup]));
            const RowSlot &limiter = vocab.limiters[row.limiter];
            std::memcpy(p, limiter.text.data(), kRowSlot);
            p = expandNumber(in, end, p + limiter.len);
            *p++ = kRowText[kRowEnd][0];
            continue;
        }
        // The literal code: the byte after it.
        *p++ = static_cast<char>(*in++);
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
