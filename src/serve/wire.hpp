// Wire layer of hipo::serve: the JSON document model, its strict parser and
// the frame codec live in hipo_obs (src/obs/wire.hpp) so that layers below
// the daemon — the shard runner, the delta-script reader — share the one
// implementation. These declarations keep the serve-side spellings
// (serve::Json, serve::parse_json, serve::write_frame_fd, ...).
#pragma once

#include "src/obs/wire.hpp"

namespace hipo::serve {

using obs::decode_frame_header;
using obs::encode_frame_header;
using obs::Json;
using obs::kFrameHeaderBytes;
using obs::parse_json;
using obs::read_frame_fd;
using obs::write_frame_fd;

}  // namespace hipo::serve
