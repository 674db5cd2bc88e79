/// \file flooding.h
/// The spread-process simulation. The paper's protocol (Section 4) is the
/// one-message special case: every informed agent transmits at each discrete
/// time step; an uninformed agent within Euclidean distance R of an informed
/// agent becomes informed and transmits from the next step on. The flooding
/// time is the first step at which all n agents are informed.
///
/// The simulation is multi-message: a spread_spec (core/spread.h) injects
/// any number of messages, each with its own source set, spawn step,
/// propagation mode and gossip probability. All messages share one mobility
/// advance and one spatial-index rebuild per step — a k-message run costs
/// one kinematics pass, not k. Every run returns one spread_result; the
/// paper's flooding time is message 0's flooding_time.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/cell_partition.h"
#include "core/spread.h"
#include "geom/uniform_grid.h"
#include "graph/union_find.h"
#include "mobility/walker.h"
#include "rng/rng.h"
#include "util/bitset.h"
#include "util/parallel.h"
#include "util/telemetry.h"

namespace manhattan::core {

/// The paper's flood: one one_hop message from agent 0 that stops when
/// every agent is informed. Workloads with another source, mode or message
/// set use a spread_config.
struct flood_config {
    std::uint64_t max_steps = 1'000'000; ///< give-up horizon for run_spread()
    bool record_timeline = true;         ///< keep per-step informed counts
};

/// Discrete-time spread simulation over a walker population.
///
/// The walker is owned (moved in). An optional cell_partition observer
/// enables the Central-Zone / Suburb metrics; it must outlive the simulation.
///
/// An optional parallel_executor (util/parallel.h, borrowed — must outlive
/// the simulation) fans the per-step phases (mobility advance, grid
/// rebuild, neighbourhood scans) over its lanes. The executor never changes
/// outcomes: every spread_result is bit-identical to the serial (null
/// executor) run at any lane count, for every propagation mode — the same
/// guarantee docs/ENGINE.md makes across replicas, here within one replica
/// (see docs/PERF.md for the mechanism). Per-message randomness (gossip
/// coins, random-k source draws) comes from each message's own seeds, so
/// messages never perturb each other's streams (docs/WORKLOADS.md).
class flooding_sim {
 public:
    /// Multi-message constructor. Throws if the spread has no messages, a
    /// source spec is unsatisfiable, radius is not positive, a gossip-mode
    /// message has gossip_p outside (0, 1], or the stop rule is invalid.
    flooding_sim(mobility::walker agents, double radius, spread_config cfg,
                 const cell_partition* cells = nullptr,
                 util::parallel_executor* exec = nullptr);

    /// The paper's flood (flood_config): one one_hop message from agent 0.
    flooding_sim(mobility::walker agents, double radius, flood_config cfg = {},
                 const cell_partition* cells = nullptr,
                 util::parallel_executor* exec = nullptr);

    /// Swap the borrowed executor (nullptr = serial). Takes effect from the
    /// next step(); never changes what the simulation computes.
    void set_executor(util::parallel_executor* exec) noexcept { exec_ = exec; }

    /// Advance one time step (move + transmit every live message). Returns
    /// the newly informed count summed over all messages.
    std::size_t step();

    /// Run until every message satisfies the stop rule or cfg.max_steps is
    /// hit; return per-message results.
    [[nodiscard]] spread_result run_spread();

    /// Every message spawned and fully informed.
    [[nodiscard]] bool all_informed() const noexcept;
    /// Message \p m spawned and fully informed.
    [[nodiscard]] bool all_informed(std::size_t m) const;

    [[nodiscard]] std::size_t num_messages() const noexcept { return messages_.size(); }
    /// Informed count of message 0 / message \p m.
    [[nodiscard]] std::size_t informed_count() const noexcept {
        return messages_.front().informed_count;
    }
    [[nodiscard]] std::size_t informed_count(std::size_t m) const {
        return messages_.at(m).informed_count;
    }
    [[nodiscard]] std::uint64_t steps_taken() const noexcept { return step_count_; }
    /// Whether agent \p i holds message 0 / message \p m.
    [[nodiscard]] bool is_informed(std::size_t i) const {
        return messages_.front().spawned && messages_.front().touched.test(i);
    }
    [[nodiscard]] bool is_informed(std::size_t m, std::size_t i) const {
        return messages_.at(m).spawned && messages_.at(m).touched.test(i);
    }
    [[nodiscard]] const mobility::walker& agents() const noexcept { return walker_; }
    [[nodiscard]] double radius() const noexcept { return radius_; }

    /// Per-phase wall time of every step() so far (util/telemetry.h). All
    /// zeros while telemetry is disabled — the timers then never read the
    /// clock. Profiling is observation only: enabling it never changes any
    /// simulation output (tests/telemetry_test.cpp pins bit-identity).
    [[nodiscard]] const util::phase_profile& profile() const noexcept { return profile_; }

 private:
    /// Per-message spread state. The informed bitmaps, informing order and
    /// uninformed-set bookkeeping are exactly the single-message engine's,
    /// one copy per message; the grid/positions they scan are shared.
    ///
    /// The informed state is two packed bitsets (util/bitset.h) instead of
    /// the old one-byte-per-agent 0/1/2 array: `touched` holds state != 0
    /// (informed at any point, including this step's scan) and `committed`
    /// holds state == 1 (informed before this step — the transmitting set).
    /// The scans only ever test those two predicates, and packing them cuts
    /// the scans' memory traffic 8x.
    struct message_state {
        message_spec spec;
        bool spawned = false;
        util::bitset64 touched;    ///< informed at any point (state != 0)
        util::bitset64 committed;  ///< informed before this step's scan (state == 1)
        std::vector<std::uint32_t> informed_at;
        std::vector<std::uint32_t> informed_list;  ///< ids in informing order
        std::size_t informed_count = 0;
        std::vector<std::uint32_t> sources;  ///< resolved at spawn, ascending
        std::vector<std::size_t> timeline;
        std::optional<std::uint64_t> cz_informed_step;
        std::uint64_t last_suburb_informed_step = 0;
        std::optional<std::uint64_t> stop_satisfied_step;
        std::uint64_t last_informed_step = 0;
        rng::rng gossip_gen{1};
        std::vector<std::uint8_t> transmit;  ///< gossip coins per informed slot

        // Uninformed-set bookkeeping (incremental Central-Zone metric): the
        // ids still uninformed, swap-removed in commit(), so
        // update_zone_metrics() is O(#uninformed) instead of O(n) per step.
        std::vector<std::uint32_t> uninformed;
        std::vector<std::uint32_t> uninformed_slot;  ///< id -> index in uninformed
    };

    void spawn(message_state& msg);
    void propagate(message_state& msg);
    void propagate_one_hop(message_state& msg);
    void propagate_per_component(message_state& msg);
    void propagate_gossip(message_state& msg);
    void scan_transmitters(message_state& msg, std::size_t informed_before,
                           const std::uint8_t* transmit);
    /// The radius query both transmitter scan bodies run per transmitter:
    /// the ids near \p p that \p fresh accepts are appended to \p out and
    /// passed to \p mark (flooding.cpp).
    template <typename Fresh, typename Mark>
    void collect_in_radius(geom::vec2 p, bool use_skip, std::vector<std::uint32_t>& out,
                           Fresh fresh, Mark mark) const;
    void scan_uninformed(message_state& msg);
    /// Build the per-bucket / 3x3-neighbourhood occupancy skip tables for a
    /// scan over the ids \p scanned (bucket_counts_ / nb_counts_). The
    /// scanned ids are counted per bucket and the tables keep the complement
    /// against the bucket sizes, i.e. the scan's passive side: a transmitter
    /// scan passes the committed prefix of informed_list and gets the
    /// still-uninformed counts (neighbourhoods with none to discover are
    /// skipped); an uninformed scan passes msg.uninformed and gets the
    /// committed counts (agents with no possible informer nearby are
    /// skipped). The build is O(#scanned + #buckets). Returns false — tables
    /// untouched — when the scan's 3x3 queries are too few to repay it;
    /// skipping is then simply disabled.
    [[nodiscard]] bool prepare_skip_tables(std::span<const std::uint32_t> scanned);
    void sum_bucket_neighborhoods();
    void commit(message_state& msg);
    void update_zone_metrics(message_state& msg);
    void build_components();
    void refresh_stop_satisfaction();
    [[nodiscard]] bool stop_satisfied(const message_state& msg) const;
    [[nodiscard]] bool all_stopped() const noexcept;
    [[nodiscard]] message_result result_of(const message_state& msg) const;

    mobility::walker walker_;
    double radius_;
    spread_config cfg_;
    std::size_t stop_fraction_count_ = 0;  ///< resolved informed_fraction target
    const cell_partition* cells_;
    util::parallel_executor* exec_;
    geom::uniform_grid grid_;
    std::vector<message_state> messages_;
    std::uint64_t step_count_ = 0;
    bool dsu_ready_ = false;  ///< per-step: shared components already built
    util::phase_profile profile_;  ///< per-phase step timings (telemetry)

    // Per-step scratch, shared by every message and reused so the hot path
    // never allocates in steady state. lane_* vectors are indexed by
    // executor lane; the merge back into newly_ happens in lane order, which
    // reproduces the serial discovery order exactly (see docs/PERF.md).
    std::vector<std::uint32_t> newly_;
    std::vector<std::vector<std::uint32_t>> lane_newly_;
    // The parallel transmitter scan's live list (scan_transmitters): ids of
    // the transmitters that pass the transmit flag and the skip test, in
    // ascending informed-list slot. Lanes filter their slot ranges into
    // lane_live_; the lane-order concatenation is live_.
    std::vector<std::uint32_t> live_;
    std::vector<std::vector<std::uint32_t>> lane_live_;
    std::vector<std::vector<std::uint32_t>> lane_seen_;  ///< per-lane epoch stamps
    std::uint32_t scan_epoch_ = 0;
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> lane_edges_;
    graph::union_find dsu_{0};
    std::vector<std::uint8_t> root_informed_;

    // Scan skip tables (prepare_skip_tables): per-bucket occupancy counts of
    // the scan's passive side (the complement of the scanned ids) and their
    // 3x3-neighbourhood sums. A radius query's covering rectangle is a
    // subset of the 3x3 neighbourhood of the center's bucket (bucket side >=
    // radius), so a zero neighbourhood sum proves the query cannot yield a
    // candidate and the whole query is skipped — a pure subset optimisation
    // that cannot change the discovered set or its order.
    // Counts are taken before a scan and not maintained during it (the
    // uninformed side only shrinks, so stale zeros stay correct).
    std::vector<std::uint32_t> bucket_counts_;
    std::vector<std::uint32_t> nb_row_;     ///< row-wise partial sums (scratch)
    std::vector<std::uint32_t> nb_counts_;  ///< 3x3 sums of bucket_counts_
};

}  // namespace manhattan::core
