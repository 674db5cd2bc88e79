/// \file sweep.h
/// The sweep workload: a T3a-style c1 grid of small replicas through
/// engine::run_sweep on a caller-owned pool, once plain and once durable.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "engine/sink.h"
#include "engine/sweep.h"

namespace perfbench {

/// Rows rendered through the ordinary CSV sink: the byte form every
/// "same rows" check compares.
[[nodiscard]] std::string csv_of(const std::vector<manhattan::engine::sweep_row>& rows);

/// Stamps when the first row of a pass or job arrives.
class first_row_sink final : public manhattan::engine::result_sink {
 public:
    explicit first_row_sink(steady::time_point start) : start_(start) {}
    void on_row(const manhattan::engine::sweep_row&) override {
        if (first_s_ < 0.0) {
            first_s_ = since(start_);
        }
    }
    [[nodiscard]] double first_s() const noexcept { return first_s_; }

 private:
    steady::time_point start_;
    double first_s_ = -1.0;
};

void run_sweep_workload(const options& opt, outcome& out);

}  // namespace perfbench
