#pragma once

namespace fatih::sim {

/// Inert tag with no members; its only user is perfbench/src/traced.cpp,
/// which still passes it to the two-argument Network constructor.
struct ShardPlan {};

}  // namespace fatih::sim
