#include "engine/fault.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "codec/number.h"
#include "engine/error.h"

namespace manhattan::engine::fault {

namespace {

struct rule {
    std::string site;
    action act = action::none;
    std::uint64_t count = 0;            ///< crash: the fatal hit; fail/delay: hits 1..count
    std::chrono::milliseconds delay{0};
    std::atomic<std::uint64_t> hits{0};
};

/// The armed plan. Rules are append/replace-only before workers spawn;
/// hit() walks the vector lock-free (it is never mutated concurrently with
/// instrumented code by contract — see header).
std::vector<std::unique_ptr<rule>>& rules() {
    static std::vector<std::unique_ptr<rule>> r;
    return r;
}
std::atomic<bool> any_armed{false};

/// Lazily fold MANHATTAN_FAULT into the plan, exactly once per process.
void ensure_env_loaded() {
    static std::once_flag once;
    std::call_once(once, [] {
        const char* plan = std::getenv("MANHATTAN_FAULT");
        if (plan != nullptr && plan[0] != '\0') {
            configure(plan);
        }
    });
}

[[noreturn]] void malformed(const std::string& plan, const std::string& why) {
    throw error(errc::spec, "MANHATTAN_FAULT: " + why + " in '" + plan + "'");
}

std::uint64_t parse_count(const std::string& plan, const std::string& token) {
    const std::optional<std::uint64_t> v = codec::parse_u64(token);
    if (!v || *v == 0) {
        malformed(plan, "count must be a positive integer, got '" + token + "'");
    }
    return *v;
}

}  // namespace

void arm(const std::string& site, action act, std::uint64_t count,
         std::chrono::milliseconds delay) {
    auto r = std::make_unique<rule>();
    r->site = site;
    r->act = act;
    r->count = count;
    r->delay = delay;
    rules().push_back(std::move(r));
    any_armed.store(true, std::memory_order_release);
}

void configure(const std::string& plan) {
    rules().clear();
    any_armed.store(false, std::memory_order_release);
    std::size_t pos = 0;
    while (pos < plan.size()) {
        std::size_t end = plan.find(',', pos);
        if (end == std::string::npos) {
            end = plan.size();
        }
        const std::string entry = plan.substr(pos, end - pos);
        pos = end + 1;
        if (entry.empty()) {
            malformed(plan, "empty rule");
        }
        // site:action:count[:arg]
        std::vector<std::string> fields;
        std::size_t fpos = 0;
        while (true) {
            const std::size_t colon = entry.find(':', fpos);
            if (colon == std::string::npos) {
                fields.push_back(entry.substr(fpos));
                break;
            }
            fields.push_back(entry.substr(fpos, colon - fpos));
            fpos = colon + 1;
        }
        if (fields.size() < 3 || fields[0].empty()) {
            malformed(plan, "rule '" + entry + "' is not site:action:count[:arg]");
        }
        action act = action::none;
        if (fields[1] == "crash") {
            act = action::crash;
        } else if (fields[1] == "fail") {
            act = action::fail;
        } else if (fields[1] == "delay") {
            act = action::delay;
        } else {
            malformed(plan, "unknown action '" + fields[1] + "'");
        }
        const std::uint64_t count = parse_count(plan, fields[2]);
        std::chrono::milliseconds delay{0};
        if (act == action::delay) {
            if (fields.size() != 4) {
                malformed(plan, "delay rule '" + entry + "' needs site:delay:count:ms");
            }
            delay = std::chrono::milliseconds{
                static_cast<long long>(parse_count(plan, fields[3]))};
        } else if (fields.size() != 3) {
            malformed(plan, "rule '" + entry + "' has trailing fields");
        }
        arm(fields[0], act, count, delay);
    }
}

outcome hit(const char* site) {
    ensure_env_loaded();  // fast after the first call: one fence
    if (!any_armed.load(std::memory_order_acquire)) {
        return {};
    }
    for (const auto& r : rules()) {
        if (r->site != site) {
            continue;
        }
        const std::uint64_t n = r->hits.fetch_add(1, std::memory_order_relaxed) + 1;
        switch (r->act) {
            case action::crash:
                if (n == r->count) {
                    return {action::crash, {}};
                }
                break;
            case action::fail:
                if (n <= r->count) {
                    return {action::fail, {}};
                }
                break;
            case action::delay:
                if (n <= r->count) {
                    return {action::delay, r->delay};
                }
                break;
            case action::none:
                break;
        }
        return {};  // one rule per site: first match wins
    }
    return {};
}

void act(const char* site, const outcome& due) {
    switch (due.act) {
        case action::none:
            return;
        case action::crash:
            std::fprintf(stderr, "fault: injected crash at %s\n", site);
            (void)std::raise(SIGKILL);
            return;
        case action::fail:
            throw error(errc::io, std::string{"injected I/O fault at "} + site, true);
        case action::delay:
            std::this_thread::sleep_for(due.delay);
            return;
    }
}

bool armed() noexcept {
    // Arm lazily from the environment on the first query, so binaries that
    // never call configure() still honour MANHATTAN_FAULT.
    ensure_env_loaded();
    return any_armed.load(std::memory_order_acquire);
}

}  // namespace manhattan::engine::fault
