#include "common/fault.hh"

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/config.hh"
#include "common/log.hh"

namespace hs {

namespace {

/** FNV-1a over a byte range, chained through @p h. */
uint64_t
fnvMix(uint64_t h, const void *data, size_t n)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Registry of legal site names; parse() rejects everything else. */
const std::vector<std::string> kSites = {
    "recv_mid_eof",      "connect_fail",      "connect_delay",
    "handshake_garbage", "worker_crash",      "store_torn_write",
    "store_rename_fail", "store_checksum_flip", "store_crash",
    "dispatch_delay",
};

bool
knownSite(const std::string &name)
{
    for (const std::string &s : kSites)
        if (s == name)
            return true;
    return false;
}

/** Strict u64 parse; the whole string must be consumed. */
bool
parseU64(const std::string &s, uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE)
        return false;
    out = v;
    return true;
}

} // namespace

const std::vector<std::string> &
FaultPlan::knownSites()
{
    return kSites;
}

std::unique_ptr<FaultPlan>
FaultPlan::parse(const std::string &spec, std::string &why)
{
    size_t colon = spec.find(':');
    if (colon == std::string::npos || colon == 0) {
        why = "expected '<seed>:<site-rule>[,...]'";
        return nullptr;
    }

    auto plan = std::unique_ptr<FaultPlan>(new FaultPlan());
    if (!parseU64(spec.substr(0, colon), plan->seed_)) {
        why = "seed '" + spec.substr(0, colon) +
              "' is not an unsigned integer";
        return nullptr;
    }

    std::string rules = spec.substr(colon + 1);
    if (rules.empty()) {
        why = "empty site list";
        return nullptr;
    }

    size_t pos = 0;
    while (pos <= rules.size()) {
        size_t comma = rules.find(',', pos);
        std::string item =
            rules.substr(pos, comma == std::string::npos
                                  ? std::string::npos
                                  : comma - pos);

        size_t at = item.find('@');
        size_t eq = item.find('=');
        FaultRule rule;
        std::string site;
        if (at != std::string::npos && eq == std::string::npos) {
            site = item.substr(0, at);
            std::string prob = item.substr(at + 1);
            char *end = nullptr;
            double p = std::strtod(prob.c_str(), &end);
            if (prob.empty() || end == prob.c_str() || *end != '\0' ||
                p <= 0.0 || p > 1.0) {
                why = "rule '" + item +
                      "': probability must be in (0, 1]";
                return nullptr;
            }
            rule.probability = p;
        } else if (eq != std::string::npos && at == std::string::npos) {
            site = item.substr(0, eq);
            if (!parseU64(item.substr(eq + 1), rule.nthCall) ||
                rule.nthCall == 0) {
                why = "rule '" + item +
                      "': call index must be a positive integer";
                return nullptr;
            }
        } else {
            why = "rule '" + item +
                  "': expected '<site>@<prob>' or '<site>=<n>'";
            return nullptr;
        }

        if (site == "*") {
            plan->hasWildcard_ = true;
            plan->wildcard_ = rule;
        } else if (!knownSite(site)) {
            why = "unknown injection site '" + site + "'";
            return nullptr;
        } else if (!plan->rules_.emplace(site, rule).second) {
            why = "duplicate rule for site '" + site + "'";
            return nullptr;
        }

        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return plan;
}

bool
FaultPlan::fire(const std::string &site)
{
    const FaultRule *rule = nullptr;
    auto it = rules_.find(site);
    if (it != rules_.end())
        rule = &it->second;
    else if (hasWildcard_)
        rule = &wildcard_;

    std::lock_guard<std::mutex> lock(mu_);
    SiteState &st = sites_[site];
    uint64_t call = ++st.calls;
    if (!rule)
        return false;

    bool hit;
    if (rule->nthCall > 0) {
        hit = call == rule->nthCall;
    } else {
        // Deterministic per-(seed, site, call) coin flip: the same
        // schedule replays bit-for-bit, independent of which thread
        // happens to reach the site.
        uint64_t h = fnvMix(0xcbf29ce484222325ull, &seed_,
                            sizeof(seed_));
        h = fnvMix(h, site.data(), site.size());
        h = fnvMix(h, &call, sizeof(call));
        double u = static_cast<double>(h >> 11) /
                   static_cast<double>(1ull << 53);
        hit = u < rule->probability;
    }
    if (hit) {
        ++st.fired;
        warn("fault injection: '%s' firing (call %llu, seed %llu)",
             site.c_str(), static_cast<unsigned long long>(call),
             static_cast<unsigned long long>(seed_));
        logEvent("fault", "fire", LogSeverity::Warn,
                 {LogField::text("site", site),
                  LogField::num("call", call),
                  LogField::num("seed", seed_)});
    }
    return hit;
}

uint64_t
FaultPlan::calls(const std::string &site) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.calls;
}

uint64_t
FaultPlan::fired(const std::string &site) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sites_.find(site);
    return it == sites_.end() ? 0 : it->second.fired;
}

std::string
FaultPlan::str() const
{
    std::string s = "seed " + std::to_string(seed_) + ":";
    // Deterministic listing order (registry order, wildcard last).
    for (const std::string &site : kSites) {
        auto it = rules_.find(site);
        if (it == rules_.end())
            continue;
        s += " " + site;
        if (it->second.nthCall > 0)
            s += "=" + std::to_string(it->second.nthCall);
        else
            s += "@" + std::to_string(it->second.probability);
    }
    if (hasWildcard_) {
        s += " *";
        if (wildcard_.nthCall > 0)
            s += "=" + std::to_string(wildcard_.nthCall);
        else
            s += "@" + std::to_string(wildcard_.probability);
    }
    return s;
}

namespace {

// The installed plan. Reads are lock-free (one atomic load per
// injection site); the mutex serialises the one-time HS_FAULTS parse
// and explicit installs, which happen while the engine is quiescent.
std::mutex g_planMu;
std::unique_ptr<FaultPlan> g_owned;
std::atomic<FaultPlan *> g_plan{nullptr};
std::atomic<bool> g_resolved{false};

} // namespace

FaultPlan *
faultPlan()
{
    if (!g_resolved.load(std::memory_order_acquire)) {
        std::lock_guard<std::mutex> lock(g_planMu);
        if (!g_resolved.load(std::memory_order_relaxed)) {
            std::string env = knobText("HS_FAULTS");
            if (!env.empty()) {
                std::string why;
                g_owned = FaultPlan::parse(env, why);
                if (!g_owned)
                    panic("HS_FAULTS passed its check: %s", why.c_str());
                warn("fault injection armed: %s",
                     g_owned->str().c_str());
                logEvent("fault", "armed", LogSeverity::Warn,
                         {LogField::text("plan", g_owned->str())});
                g_plan.store(g_owned.get(), std::memory_order_release);
            }
            g_resolved.store(true, std::memory_order_release);
        }
    }
    return g_plan.load(std::memory_order_acquire);
}

void
installFaultPlan(std::unique_ptr<FaultPlan> plan)
{
    std::lock_guard<std::mutex> lock(g_planMu);
    g_owned = std::move(plan);
    g_plan.store(g_owned.get(), std::memory_order_release);
    // The explicit install overrides HS_FAULTS, including install(null).
    g_resolved.store(true, std::memory_order_release);
}

ScopedFaultPlan::ScopedFaultPlan(const std::string &spec)
{
    std::string why;
    auto plan = FaultPlan::parse(spec, why);
    if (!plan)
        fatal("ScopedFaultPlan: %s (got '%s')", why.c_str(),
              spec.c_str());
    installFaultPlan(std::move(plan));
}

ScopedFaultPlan::~ScopedFaultPlan()
{
    installFaultPlan(nullptr);
}

} // namespace hs
