#pragma once
/// \file chaos.hpp
/// \brief Umbrella header for the chaos engine: pluggable invariant-bearing
///        scenarios, the seeded suite, deterministic fault-space enumeration
///        with replayed trials, and failing-schedule shrinking.
///
/// Both modes sit on top of `src/fault/`: a trial is a scenario run under a
/// seeded plan or a verbatim-replayed `fault::Schedule` on a private
/// injector, judged by artifact byte-identity against the uninjected
/// reference. See `stamp_chaos run` and `stamp_chaos campaign`.

#include "chaos/campaign.hpp"
#include "chaos/scenario.hpp"
#include "chaos/shrink.hpp"
#include "chaos/suite.hpp"
