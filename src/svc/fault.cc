#include "fault.hh"

#include <chrono>
#include <thread>

#include "util/format.hh"

namespace hcm {
namespace svc {
namespace {

/** Parse one "site:action[:modifier...]" rule. */
bool
parseRule(const std::string &text, FaultRule *rule, std::string *error)
{
    std::vector<std::string> parts = split(text, ':');
    if (parts.size() < 2) {
        *error = "fault rule '" + text +
                 "' needs at least site:action";
        return false;
    }
    rule->site = parts[0];
    if (rule->site != "eval" && rule->site != "dequeue") {
        *error = "unknown fault site '" + rule->site +
                 "' (eval, dequeue)";
        return false;
    }
    const std::string &action = parts[1];
    if (action == "throw") {
        rule->action = FaultRule::Action::Throw;
    } else if (action.rfind("throw=", 0) == 0) {
        rule->action = FaultRule::Action::Throw;
        rule->message = action.substr(6);
    } else if (action.rfind("delay=", 0) == 0) {
        rule->action = FaultRule::Action::Delay;
        auto ms = parseNumber<std::uint64_t>(action.substr(6));
        if (!ms) {
            *error = "bad delay milliseconds in '" + text + "'";
            return false;
        }
        rule->delayMs = *ms;
    } else {
        *error = "unknown fault action '" + action +
                 "' (throw[=msg], delay=ms)";
        return false;
    }
    for (std::size_t i = 2; i < parts.size(); ++i) {
        const std::string &mod = parts[i];
        auto n = parseNumber<std::uint64_t>(mod.substr(mod.find('=') + 1));
        if (n && *n > 0 && mod.rfind("nth=", 0) == 0) {
            rule->nth = *n;
        } else if (n && *n > 0 && mod.rfind("every=", 0) == 0) {
            rule->every = *n;
        } else {
            *error = "bad fault modifier '" + mod +
                     "' (nth=N, every=K; both >= 1)";
            return false;
        }
    }
    return true;
}

/** Does @p rule fire on the @p call-th visit (1-based) of its site? */
bool
fires(const FaultRule &rule, std::uint64_t call)
{
    if (rule.nth > 0 && call != rule.nth)
        return false;
    if (rule.every > 0 && call % rule.every != 0)
        return false;
    return true;
}

} // namespace

FaultInjector &
FaultInjector::instance()
{
    static FaultInjector injector;
    return injector;
}

bool
FaultInjector::configure(const std::string &spec, std::string *error)
{
    std::vector<FaultRule> rules;
    for (const std::string &piece : split(spec, ',')) {
        std::string text = trim(piece);
        if (text.empty())
            continue;
        FaultRule rule;
        std::string why;
        if (!parseRule(text, &rule, &why)) {
            if (error)
                *error = why;
            reset();
            return false;
        }
        rules.push_back(std::move(rule));
    }
    bool armed = false;
    {
        std::lock_guard<std::mutex> lock(_mu);
        _rules = std::move(rules);
        _calls.clear();
        armed = !_rules.empty();
    }
    _enabled.store(armed, std::memory_order_relaxed);
    return true;
}

void
FaultInjector::reset()
{
    _enabled.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(_mu);
    _rules.clear();
    _calls.clear();
}

void
FaultInjector::maybeInject(const char *site)
{
    if (!enabled())
        return;
    std::uint64_t total_delay_ms = 0;
    bool do_throw = false;
    std::string message;
    {
        std::lock_guard<std::mutex> lock(_mu);
        std::uint64_t call = ++_calls[site];
        for (const FaultRule &rule : _rules) {
            if (rule.site != site || !fires(rule, call))
                continue;
            if (rule.action == FaultRule::Action::Delay) {
                total_delay_ms += rule.delayMs;
            } else if (!do_throw) {
                do_throw = true;
                message = rule.message;
            }
        }
    }
    if (total_delay_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::milliseconds(total_delay_ms));
    if (do_throw)
        throw FaultInjected(message);
}

std::uint64_t
FaultInjector::callCount(const std::string &site) const
{
    std::lock_guard<std::mutex> lock(_mu);
    auto it = _calls.find(site);
    return it == _calls.end() ? 0 : it->second;
}

} // namespace svc
} // namespace hcm
