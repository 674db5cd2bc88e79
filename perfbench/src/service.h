/// \file service.h
/// The service workload: an in-process daemon with a warm result cache and
/// a closed loop of clients submitting a cache-hit / cold-run job mix.
#pragma once

#include "common.h"

namespace perfbench {

void run_service_workload(const options& opt, outcome& out);

}  // namespace perfbench
