#include "core/flooding.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace manhattan::core {

namespace {

/// The paper's flood as a spread workload: one one_hop message from agent 0.
spread_config paper_flood(const flood_config& cfg) {
    spread_config out;
    out.spread.messages.push_back({.sources = source_spec::agents({0})});
    out.max_steps = cfg.max_steps;
    out.record_timeline = cfg.record_timeline;
    return out;
}

}  // namespace

flooding_sim::flooding_sim(mobility::walker agents, double radius, spread_config cfg,
                           const cell_partition* cells, util::parallel_executor* exec)
    : walker_(std::move(agents)),
      radius_(radius),
      cfg_(std::move(cfg)),
      cells_(cells),
      exec_(exec),
      grid_(walker_.model().side(), std::min(radius, walker_.model().side())) {
    if (!(radius > 0.0)) {
        throw std::invalid_argument("flooding_sim: radius must be positive");
    }
    reach_ = grid_.query_reach(radius_);
    fill_mask_.assign(grid_.bucket_count(), 0);
    if (cfg_.spread.messages.empty()) {
        throw std::invalid_argument("flooding_sim: spread workload has no messages");
    }
    cfg_.spread.stop.validate();
    const std::size_t n = walker_.size();
    messages_.reserve(cfg_.spread.messages.size());
    for (const message_spec& spec : cfg_.spread.messages) {
        spec.sources.validate(n);
        if (spec.mode == propagation::gossip &&
            !(spec.gossip_p > 0.0 && spec.gossip_p <= 1.0)) {
            throw std::invalid_argument("flooding_sim: gossip_p must be in (0, 1]");
        }
        message_state msg;
        msg.spec = spec;
        msg.gossip_gen = rng::rng(spec.gossip_seed);
        messages_.push_back(std::move(msg));
    }
    if (cfg_.spread.stop.how == stop_rule::kind::informed_fraction) {
        const auto target = static_cast<std::size_t>(
            std::ceil(cfg_.spread.stop.fraction * static_cast<double>(n)));
        stop_fraction_count_ = std::clamp<std::size_t>(target, 1, n);
    }
    for (message_state& msg : messages_) {
        if (msg.spec.spawn_step == 0) {
            spawn(msg);
        }
    }
    refresh_stop_satisfaction();
}

flooding_sim::flooding_sim(mobility::walker agents, double radius, flood_config cfg,
                           const cell_partition* cells, util::parallel_executor* exec)
    : flooding_sim(std::move(agents), radius, paper_flood(cfg), cells, exec) {}

/// Mark a message's resolved sources informed at the current step. Sources
/// are resolved against the *current* positions (a message spawned at step s
/// originates wherever its placement rule points at step s); the uninformed
/// set and Central-Zone metric start tracking from here.
void flooding_sim::spawn(message_state& msg) {
    const std::size_t n = walker_.size();
    msg.sources = resolve_sources(msg.spec.sources, walker_.positions(),
                                  walker_.model().side(), msg.spec.source_seed);
    msg.touched.assign_zero(n);
    msg.committed.assign_zero(n);
    msg.informed_at.assign(n, never_informed);
    msg.informed_list.reserve(n);
    for (const std::uint32_t id : msg.sources) {
        msg.touched.set(id);
        msg.committed.set(id);
        msg.informed_at[id] = static_cast<std::uint32_t>(step_count_);
        msg.informed_list.push_back(id);
    }
    msg.informed_count = msg.sources.size();
    msg.last_informed_step = step_count_;
    msg.uninformed.reserve(n);
    msg.uninformed_slot.assign(n, 0);
    for (std::uint32_t a = 0; a < n; ++a) {
        if (!msg.touched.test(a)) {
            msg.uninformed_slot[a] = static_cast<std::uint32_t>(msg.uninformed.size());
            msg.uninformed.push_back(a);
        }
    }
    msg.spawned = true;
    update_zone_metrics(msg);
}

/// Decide whether a scan is worth skip tables and build them if so. The
/// scanned ids are counted per bucket (O(#scanned)) and each count is
/// replaced by its complement against the bucket size: between scans
/// touched == committed, so that is the passive side of the scan in every
/// bucket. A query covers up to 3x3 buckets of about n / #buckets agents,
/// so the tables are skipped only when the scan's queries, 9n / #buckets
/// candidates each, cost less than the build (#scanned + 4 passes over the
/// buckets) — purely a function of already-deterministic counts, so serial
/// and parallel paths always agree.
bool flooding_sim::prepare_skip_tables(std::span<const std::uint32_t> scanned) {
    const std::size_t buckets = grid_.bucket_count();
    const std::size_t n = walker_.size();
    if (scanned.size() * 9 * n < (scanned.size() + 4 * buckets) * buckets) {
        return false;
    }
    bucket_counts_.assign(buckets, 0);
    for (const std::uint32_t a : scanned) {
        ++bucket_counts_[grid_.bucket_of_item(a)];
    }
    for (std::size_t b = 0; b < buckets; ++b) {
        const auto size = static_cast<std::uint32_t>(grid_.bucket_end(b) -
                                                     grid_.bucket_begin(b));
        bucket_counts_[b] = size - bucket_counts_[b];
    }
    sum_bucket_neighborhoods();
    return true;
}

/// nb_counts_[b] = sum of bucket_counts_ over b's clamped 3x3 neighbourhood,
/// computed separably (horizontal then vertical pass, O(#buckets) each).
void flooding_sim::sum_bucket_neighborhoods() {
    const auto m = static_cast<std::size_t>(grid_.buckets_per_side());
    const std::size_t buckets = m * m;
    nb_row_.resize(buckets);
    nb_counts_.resize(buckets);
    for (std::size_t y = 0; y < m; ++y) {
        const std::size_t row = y * m;
        for (std::size_t x = 0; x < m; ++x) {
            std::uint32_t sum = bucket_counts_[row + x];
            if (x > 0) {
                sum += bucket_counts_[row + x - 1];
            }
            if (x + 1 < m) {
                sum += bucket_counts_[row + x + 1];
            }
            nb_row_[row + x] = sum;
        }
    }
    for (std::size_t y = 0; y < m; ++y) {
        const std::size_t row = y * m;
        for (std::size_t x = 0; x < m; ++x) {
            std::uint32_t sum = nb_row_[row + x];
            if (y > 0) {
                sum += nb_row_[row - m + x];
            }
            if (y + 1 < m) {
                sum += nb_row_[row + m + x];
            }
            nb_counts_[row + x] = sum;
        }
    }
}

/// Fill the grid buckets that a scan over \p scanned can read; the step
/// only indexed the grid. With skip tables, a query reads a bucket only if
/// the bucket's passive side is non-empty, and only queries from buckets
/// that hold a scanned agent passing the skip test run, each inside its
/// bucket's query reach. So the mask is those buckets' reach, cut to the
/// non-empty passive side: a superset of what the queries read, in
/// O(#buckets) with no pass over the agents. Without the tables the scan
/// is small, and each query (each transmitting slot, with \p transmit)
/// marks the buckets it covers. A later scan in the step fills only the
/// buckets still empty. Billed to the grid phase.
void flooding_sim::fill_for_scan(std::span<const std::uint32_t> scanned, bool use_skip,
                                 const std::uint8_t* transmit) {
    const util::phase_timer timing(profile_, util::phase::grid_rebuild);
    std::fill(fill_mask_.begin(), fill_mask_.end(), std::uint8_t{0});
    if (use_skip) {
        const auto m = static_cast<std::size_t>(grid_.buckets_per_side());
        for (std::size_t by = 0; by < m; ++by) {
            for (std::size_t bx = 0; bx < m; ++bx) {
                const std::size_t b = by * m + bx;
                const std::size_t size = grid_.bucket_end(b) - grid_.bucket_begin(b);
                if (size == bucket_counts_[b] || nb_counts_[b] == 0) {
                    continue;  // no scanned agent here, or none that queries
                }
                for (std::int32_t y = reach_[by].first; y <= reach_[by].last; ++y) {
                    for (std::int32_t x = reach_[bx].first; x <= reach_[bx].last; ++x) {
                        const std::size_t t = static_cast<std::size_t>(y) * m +
                                              static_cast<std::size_t>(x);
                        fill_mask_[t] = static_cast<std::uint8_t>(bucket_counts_[t] != 0);
                    }
                }
            }
        }
    } else {
        const auto positions = walker_.positions();
        for (std::size_t k = 0; k < scanned.size(); ++k) {
            if (transmit != nullptr && transmit[k] == 0) {
                continue;
            }
            grid_.visit_covering_buckets(positions[scanned[k]], radius_,
                                         [&](std::size_t b, std::size_t, std::size_t) {
                                             fill_mask_[b] = 1;
                                             return false;
                                         });
        }
    }
    grid_.fill(fill_mask_);
}

/// One transmitter's radius query around \p p: appends to \p out the ids
/// within the radius that \p fresh accepts, in row-major bucket order and
/// ascending slot within a bucket, and passes each to \p mark. The filter
/// is branch-free: every candidate of a bucket that passes the skip test is
/// written to out's tail, and the write index advances by the test's 0/1
/// outcome. out grows by the bucket's size (it keeps its capacity across
/// steps) and is trimmed to the kept ids. Each agent lies in one bucket and
/// a query visits a bucket once, so marking the kept ids after their bucket
/// instead of on sight keeps the discovery order.
template <typename Fresh, typename Mark>
void flooding_sim::collect_in_radius(geom::vec2 p, bool use_skip,
                                     std::vector<std::uint32_t>& out, Fresh fresh,
                                     Mark mark) const {
    const auto items = grid_.items();
    const auto sorted = grid_.sorted_points();
    const double r2 = radius_ * radius_;
    grid_.visit_covering_buckets(
        p, radius_, [&](std::size_t bucket, std::size_t begin, std::size_t end) {
            if (use_skip && bucket_counts_[bucket] == 0) {
                return false;
            }
            const std::size_t first = out.size();
            out.resize(first + (end - begin));
            std::uint32_t* const dst = out.data();
            std::size_t kept = first;
            for (std::size_t s = begin; s < end; ++s) {
                const std::uint32_t a = items[s];
                dst[kept] = a;
                kept += static_cast<std::size_t>(geom::dist2(sorted[s], p) <= r2) &
                        static_cast<std::size_t>(fresh(a));
            }
            out.resize(kept);
            for (std::size_t k = first; k < kept; ++k) {
                mark(dst[k]);
            }
            return false;
        });
}

/// Neighbourhood scan over informed-list slots [0, informed_before) whose
/// transmit flag is set (null = every slot transmits), appending the newly
/// informed to newly_ in the serial discovery order: ascending slot k, grid
/// scan order within a slot, first discovery wins. The parallel path
/// reproduces that order exactly: a filter pass over ascending contiguous
/// k-ranges builds the live-transmitter list in ascending k (lane lists
/// concatenated in lane order), the query pass splits that list into
/// ascending contiguous ranges, each lane records its first sighting of an
/// agent, and the lane-order merge keeps the globally first one.
void flooding_sim::scan_transmitters(message_state& msg, std::size_t informed_before,
                                     const std::uint8_t* transmit) {
    const auto positions = walker_.positions();
    // Skip tables over the *uninformed* side: a transmitter whose 3x3 bucket
    // neighbourhood holds no uninformed agent cannot discover anyone, so its
    // whole radius query is skipped; within a query, buckets with no
    // uninformed agent are skipped bucket-wise.
    const auto scanned = std::span<const std::uint32_t>(msg.informed_list).first(informed_before);
    const bool use_skip = prepare_skip_tables(scanned);
    fill_for_scan(scanned, use_skip, transmit);

    if (exec_ == nullptr) {
        for (std::size_t k = 0; k < informed_before; ++k) {
            if (transmit != nullptr && transmit[k] == 0) {
                continue;
            }
            const std::uint32_t b = msg.informed_list[k];
            if (use_skip && nb_counts_[grid_.bucket_of_item(b)] == 0) {
                continue;
            }
            collect_in_radius(
                positions[b], use_skip, newly_,
                [&](std::uint32_t a) { return !msg.touched.test(a); },
                [&](std::uint32_t a) { msg.touched.set(a); });  // don't re-add this step
        }
        return;
    }

    const std::size_t lanes = exec_->lanes();
    const std::size_t n = walker_.size();
    lane_live_.resize(lanes);
    lane_newly_.resize(lanes);
    lane_seen_.resize(lanes);
    // Pre-clear every lane buffer: run() skips empty ranges, and a lane
    // that was non-empty in an earlier (larger-count) scan of another
    // message would otherwise leak its stale entries into the merges.
    for (auto& live : lane_live_) {
        live.clear();
    }
    for (auto& out : lane_newly_) {
        out.clear();
    }
    if (++scan_epoch_ == 0) {  // stamp wrap-around: invalidate stale stamps
        for (auto& seen : lane_seen_) {
            std::fill(seen.begin(), seen.end(), 0);
        }
        scan_epoch_ = 1;
    }
    const std::uint32_t epoch = scan_epoch_;

    // Filter pass: each lane keeps the transmitters of its own slot range
    // that pass the transmit flag and the skip test. The transmitters that
    // pass are mostly the recently informed ones at the tail of
    // informed_list, so splitting slots alone would hand nearly all queries
    // to the last lane.
    exec_->run(informed_before, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        auto& live = lane_live_[lane];
        for (std::size_t k = begin; k < end; ++k) {
            if (transmit != nullptr && transmit[k] == 0) {
                continue;
            }
            const std::uint32_t b = msg.informed_list[k];
            if (use_skip && nb_counts_[grid_.bucket_of_item(b)] == 0) {
                continue;
            }
            live.push_back(b);
        }
    });
    live_.clear();
    for (const auto& live : lane_live_) {
        live_.insert(live_.end(), live.begin(), live.end());
    }

    // Query pass: read-only on the message's informed state, the grid,
    // positions and live_; every lane writes only its own buffers.
    // Cross-lane duplicates are possible and resolved by the ordered merge
    // below. The skip tables are frozen before both fan-outs, so every lane
    // consults the same (exact, scan-start) counts the serial path starts
    // from.
    exec_->run(live_.size(), [&](std::size_t lane, std::size_t begin, std::size_t end) {
        auto& out = lane_newly_[lane];
        auto& seen = lane_seen_[lane];
        seen.resize(n, 0);
        for (std::size_t i = begin; i < end; ++i) {
            collect_in_radius(
                positions[live_[i]], use_skip, out,
                [&](std::uint32_t a) {  // both tests, without a branch between them
                    return static_cast<unsigned>(!msg.touched.test(a)) &
                           static_cast<unsigned>(seen[a] != epoch);
                },
                [&](std::uint32_t a) { seen[a] = epoch; });
        }
    });

    for (const auto& out : lane_newly_) {
        for (const std::uint32_t a : out) {
            if (!msg.touched.test(a)) {
                msg.touched.set(a);
                newly_.push_back(a);
            }
        }
    }
}

/// The dual scan for dense informed sets: probe every still-uninformed agent
/// for an already-informed neighbour. Each agent is appended by its own
/// iteration only, so lane buffers concatenate to the ascending-id serial
/// order with no dedup needed.
void flooding_sim::scan_uninformed(message_state& msg) {
    const auto positions = walker_.positions();
    const std::size_t n = walker_.size();
    // Skip tables over the *committed* side: an uninformed agent with no
    // committed transmitter anywhere in its 3x3 bucket neighbourhood cannot
    // be informed this step. The committed set is immutable during the scan,
    // so the counts stay exact throughout.
    const bool use_skip = prepare_skip_tables(msg.uninformed);
    fill_for_scan(msg.uninformed, use_skip, nullptr);
    const auto items = grid_.items();
    const auto sorted = grid_.sorted_points();
    const double r2 = radius_ * radius_;

    // Whether a committed transmitter sits within the radius of agent \p a.
    // Probe order is the grid scan order (first hit stops early); only the
    // hit/no-hit outcome matters, and skips never change it.
    const auto probe = [&](std::size_t a) -> bool {
        const geom::vec2 p = positions[a];
        if (use_skip && nb_counts_[grid_.bucket_of_item(a)] == 0) {
            return false;
        }
        return grid_.visit_covering_buckets(
            p, radius_, [&](std::size_t bucket, std::size_t begin, std::size_t end) {
                if (use_skip && bucket_counts_[bucket] == 0) {
                    return false;
                }
                for (std::size_t s = begin; s < end; ++s) {
                    if (geom::dist2(sorted[s], p) <= r2 && msg.committed.test(items[s])) {
                        return true;
                    }
                }
                return false;
            });
    };

    if (exec_ == nullptr) {
        // for_each_clear enumerates exactly the still-uninformed agents in
        // ascending id order, skipping fully-informed 64-agent words with a
        // single compare. Setting the visited bit inside the callback is
        // fine (snapshot semantics, util/bitset.h) — and required for the
        // serial discovery order: an agent informed here must not inform
        // others until committed, which `committed` already guarantees.
        msg.touched.for_each_clear(0, n, [&](std::size_t a) {
            if (probe(a)) {
                msg.touched.set(a);
                newly_.push_back(static_cast<std::uint32_t>(a));
            }
        });
        return;
    }

    const std::size_t lanes = exec_->lanes();
    lane_newly_.resize(lanes);
    for (auto& out : lane_newly_) {
        out.clear();  // run() skips empty ranges; drop stale lane content
    }
    exec_->run(n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
        auto& out = lane_newly_[lane];
        msg.touched.for_each_clear(begin, end, [&](std::size_t a) {
            if (probe(a)) {
                out.push_back(static_cast<std::uint32_t>(a));
            }
        });
    });
    for (const auto& out : lane_newly_) {
        for (const std::uint32_t a : out) {
            msg.touched.set(a);
            newly_.push_back(a);
        }
    }
}

void flooding_sim::propagate_one_hop(message_state& msg) {
    const std::size_t n = walker_.size();
    const std::size_t informed_before = msg.informed_list.size();
    if (informed_before <= n - msg.informed_count) {
        // Few informed: scan each informed agent's neighbourhood.
        scan_transmitters(msg, informed_before, nullptr);
    } else {
        // Few uninformed: probe each for an already-informed neighbour.
        scan_uninformed(msg);
    }
}

/// Build the step's proximity components once; every per_component message
/// of this step shares them (connectivity does not depend on which message
/// asks). The expensive neighbourhood scans fan over lanes into per-lane
/// edge lists; the near-linear unites stay serial. Connectivity (and hence
/// each message's newly set) is independent of the unite order, so results
/// match the serial path exactly.
void flooding_sim::build_components() {
    {
        const util::phase_timer timing(profile_, util::phase::grid_rebuild);
        grid_.fill_all();  // every agent's query, so every bucket
    }
    const util::phase_timer timing(profile_, util::phase::components);
    const auto positions = walker_.positions();
    const std::size_t n = walker_.size();
    dsu_.reset(n);

    if (exec_ == nullptr) {
        for (std::uint32_t i = 0; i < n; ++i) {
            grid_.for_each_in_radius(positions[i], radius_, [&](std::uint32_t j) {
                if (j > i) {
                    dsu_.unite(i, j);
                }
            });
        }
    } else {
        const std::size_t lanes = exec_->lanes();
        lane_edges_.resize(lanes);
        for (auto& edges : lane_edges_) {
            edges.clear();  // run() skips empty ranges; drop stale lane content
        }
        exec_->run(n, [&](std::size_t lane, std::size_t begin, std::size_t end) {
            auto& edges = lane_edges_[lane];
            for (std::size_t i = begin; i < end; ++i) {
                const auto a = static_cast<std::uint32_t>(i);
                grid_.for_each_in_radius(positions[i], radius_, [&](std::uint32_t j) {
                    if (j > a) {
                        edges.emplace_back(a, j);
                    }
                });
            }
        });
        for (const auto& edges : lane_edges_) {
            for (const auto& [i, j] : edges) {
                dsu_.unite(i, j);
            }
        }
    }
    dsu_ready_ = true;
}

void flooding_sim::propagate_per_component(message_state& msg) {
    if (!dsu_ready_) {
        build_components();
    }
    const std::size_t n = walker_.size();
    root_informed_.assign(n, 0);
    for (const std::uint32_t b : msg.informed_list) {
        root_informed_[dsu_.find(b)] = 1;
    }
    msg.touched.for_each_clear(0, n, [&](std::size_t a) {
        if (root_informed_[dsu_.find(a)] != 0) {
            msg.touched.set(a);
            newly_.push_back(static_cast<std::uint32_t>(a));
        }
    });
}

void flooding_sim::propagate_gossip(message_state& msg) {
    // Like one_hop, but each informed agent only transmits with probability
    // gossip_p. The coin is drawn for *every* informed agent every step, in
    // informing order, so the coin stream (and thus the run) depends only on
    // (gossip_seed, informing history) — not on neighbourhood structure,
    // thread count, or any other message. Coins are drawn up front
    // (serially) and the scans then share the one_hop machinery.
    const std::size_t informed_before = msg.informed_list.size();
    msg.transmit.resize(informed_before);
    for (std::size_t k = 0; k < informed_before; ++k) {
        msg.transmit[k] = msg.gossip_gen.bernoulli(msg.spec.gossip_p) ? 1 : 0;
    }
    scan_transmitters(msg, informed_before, msg.transmit.data());
}

void flooding_sim::propagate(message_state& msg) {
    switch (msg.spec.mode) {
        case propagation::one_hop:
            propagate_one_hop(msg);
            break;
        case propagation::per_component:
            propagate_per_component(msg);
            break;
        case propagation::gossip:
            propagate_gossip(msg);
            break;
    }
}

void flooding_sim::commit(message_state& msg) {
    const auto positions = walker_.positions();
    for (const std::uint32_t a : newly_) {
        msg.committed.set(a);  // touched was set at discovery
        msg.informed_at[a] = static_cast<std::uint32_t>(step_count_);
        msg.informed_list.push_back(a);
        // Swap-remove from the uninformed set (order there is irrelevant:
        // only membership feeds the Central-Zone scan).
        const std::uint32_t slot = msg.uninformed_slot[a];
        const std::uint32_t last = msg.uninformed.back();
        msg.uninformed[slot] = last;
        msg.uninformed_slot[last] = slot;
        msg.uninformed.pop_back();
        if (cells_ != nullptr && cells_->zone_of_point(positions[a]) == zone::suburb) {
            msg.last_suburb_informed_step = step_count_;
        }
    }
    if (!newly_.empty()) {
        msg.last_informed_step = step_count_;
    }
    msg.informed_count += newly_.size();
}

void flooding_sim::update_zone_metrics(message_state& msg) {
    if (cells_ == nullptr || msg.cz_informed_step.has_value()) {
        return;
    }
    // Only still-uninformed agents can block the Central Zone, so the scan
    // shrinks with the flood instead of rescanning all n agents every step.
    if (!cells_->any_in_zone(walker_.positions(), msg.uninformed, zone::central)) {
        msg.cz_informed_step = step_count_;
    }
}

bool flooding_sim::stop_satisfied(const message_state& msg) const {
    const std::size_t n = walker_.size();
    switch (cfg_.spread.stop.how) {
        case stop_rule::kind::all_informed:
            return msg.spawned && msg.informed_count == n;
        case stop_rule::kind::informed_fraction:
            return msg.spawned && msg.informed_count >= stop_fraction_count_;
        case stop_rule::kind::central_zone:
            // Without a partition the Central Zone is unobservable; fall
            // back to the all-informed criterion (documented in spread.h).
            if (cells_ == nullptr) {
                return msg.spawned && msg.informed_count == n;
            }
            return msg.spawned && msg.cz_informed_step.has_value();
        case stop_rule::kind::step_budget:
            return step_count_ >= cfg_.spread.stop.steps;
    }
    return false;
}

void flooding_sim::refresh_stop_satisfaction() {
    for (message_state& msg : messages_) {
        if (!msg.stop_satisfied_step.has_value() && stop_satisfied(msg)) {
            msg.stop_satisfied_step = step_count_;
        }
    }
}

bool flooding_sim::all_stopped() const noexcept {
    for (const message_state& msg : messages_) {
        if (!msg.stop_satisfied_step.has_value()) {
            return false;
        }
    }
    return true;
}

bool flooding_sim::all_informed() const noexcept {
    for (const message_state& msg : messages_) {
        if (!msg.spawned || msg.informed_count != walker_.size()) {
            return false;
        }
    }
    return true;
}

bool flooding_sim::all_informed(std::size_t m) const {
    const message_state& msg = messages_.at(m);
    return msg.spawned && msg.informed_count == walker_.size();
}

std::size_t flooding_sim::step() {
    ++step_count_;
    {
        const util::phase_timer timing(profile_, util::phase::advance);
        if (exec_ != nullptr) {
            walker_.step(*exec_);
        } else {
            walker_.step();
        }
    }
    {
        // The index only: each scan fills the buckets it reads
        // (fill_for_scan), and the component build fills them all.
        const util::phase_timer timing(profile_, util::phase::grid_rebuild);
        if (exec_ != nullptr) {
            grid_.index(walker_.positions(), *exec_);
        } else {
            grid_.index(walker_.positions());
        }
    }
    dsu_ready_ = false;

    // Scan-phase timing brackets the whole message loop but excludes the
    // nested grid fills and shared-component build, which bill to their own
    // phases — the four phases tile a step without overlap.
    const bool timing_on = util::telemetry::enabled();
    const auto scan_start =
        timing_on ? std::chrono::steady_clock::now() : std::chrono::steady_clock::time_point{};
    const auto nested_seconds = [this] {
        return profile_.seconds[static_cast<std::size_t>(util::phase::grid_rebuild)] +
               profile_.seconds[static_cast<std::size_t>(util::phase::components)];
    };
    const double nested_before = nested_seconds();

    // One kinematics pass above, then every live message transmits over the
    // shared grid. Messages are independent overlays: order is fixed (spec
    // order) and no message reads another's state, so the per-message
    // outcomes — timeline included — equal k single-message runs on the
    // same trace (a completed message's timeline stays frozen at its
    // completion step, exactly where its standalone run would have ended).
    const std::size_t n = walker_.size();
    std::size_t total_newly = 0;
    for (message_state& msg : messages_) {
        const bool was_complete = msg.spawned && msg.informed_count == n;
        if (msg.spawned && !was_complete) {
            newly_.clear();
            propagate(msg);
            commit(msg);
            update_zone_metrics(msg);
            total_newly += newly_.size();
        } else if (!msg.spawned && msg.spec.spawn_step == step_count_) {
            spawn(msg);
            total_newly += msg.informed_count;
        }
        if (cfg_.record_timeline && !was_complete) {
            msg.timeline.push_back(msg.informed_count);  // 0 while unspawned
        }
    }
    if (timing_on) {
        const double loop_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - scan_start)
                .count();
        profile_.add(util::phase::scan, loop_seconds - (nested_seconds() - nested_before));
    }
    refresh_stop_satisfaction();
    return total_newly;
}

message_result flooding_sim::result_of(const message_state& msg) const {
    message_result r;
    r.completed = msg.spawned && msg.informed_count == walker_.size();
    r.flooding_time = r.completed ? msg.last_informed_step : step_count_;
    r.informed_count = msg.informed_count;
    if (msg.spawned) {
        r.informed_at = msg.informed_at;
    } else {
        r.informed_at.assign(walker_.size(), never_informed);
    }
    r.timeline = msg.timeline;
    r.sources = msg.sources;
    r.spawn_step = msg.spec.spawn_step;
    r.stop_satisfied_step = msg.stop_satisfied_step;
    r.central_zone_informed_step = msg.cz_informed_step;
    r.last_suburb_informed_step = msg.last_suburb_informed_step;
    return r;
}

spread_result flooding_sim::run_spread() {
    while (!all_stopped() && step_count_ < cfg_.max_steps) {
        (void)step();
    }
    spread_result result;
    result.completed = all_stopped();
    result.steps = step_count_;
    result.messages.reserve(messages_.size());
    for (const message_state& msg : messages_) {
        result.messages.push_back(result_of(msg));
    }
    return result;
}

}  // namespace manhattan::core
