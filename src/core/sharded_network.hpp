#pragma once
// Forwarding header: multi-chip execution is core::EmstdpNetwork::split
// (core/network.hpp); plan_network_shards lives there too. Kept so code
// that includes this path keeps compiling.

#include "core/network.hpp"
