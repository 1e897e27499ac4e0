// hipo::obs — the observability layer: tracing spans (Chrome/Perfetto
// trace-event JSON), a sharded metrics registry (counters, gauges, accums,
// fixed-bucket histograms), pipeline-phase markers, the build-info
// provenance stamp, and the one JSON reader/writer and frame codec. See
// docs/ALGORITHMS.md ("Observability") and docs/FORMATS.md for the JSON
// schemas.
#pragma once

#include "src/obs/build_info.hpp"
#include "src/obs/json.hpp"
#include "src/obs/log.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/phase.hpp"
#include "src/obs/report.hpp"
#include "src/obs/rss.hpp"
#include "src/obs/stopwatch.hpp"
#include "src/obs/trace.hpp"
#include "src/obs/wire.hpp"
